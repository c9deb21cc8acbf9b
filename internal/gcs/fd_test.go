package gcs

import (
	"slices"
	"testing"
	"time"

	"repro/internal/netsim"
)

// fdRig builds a process whose detector we can poke directly.
func fdRig(t *testing.T) (*cluster, *Process) {
	t.Helper()
	c := newCluster(t, 1, netsim.LAN())
	c.join("a", "g")
	c.join("b", "g", "a")
	c.waitConverged(3*time.Second, "a", "b")
	return c, c.proc["a"]
}

func TestDetectorGracePeriod(t *testing.T) {
	c, p := fdRig(t)
	p.mu.Lock()
	// b is a fresh peer of interest: it must not be suspectable before a
	// full timeout has passed, even if it said nothing yet.
	suspected := p.fd.isSuspectedLocked("b")
	p.mu.Unlock()
	if suspected {
		t.Fatal("peer suspected during its grace period")
	}
	c.settle(100 * time.Millisecond)
	p.mu.Lock()
	suspected = p.fd.isSuspectedLocked("b")
	p.mu.Unlock()
	if suspected {
		t.Fatal("live peer suspected")
	}
}

func TestDetectorSuspectsSilentPeer(t *testing.T) {
	c, p := fdRig(t)
	c.net.Crash("b")
	// The suspicion is transient: once the view change excludes b, the
	// detector prunes its state. Step in small increments to observe it.
	sawSuspected := false
	for i := 0; i < 40 && !sawSuspected; i++ {
		c.settle(50 * time.Millisecond)
		p.mu.Lock()
		sawSuspected = p.fd.isSuspectedLocked("b")
		p.mu.Unlock()
	}
	if !sawSuspected {
		t.Fatal("silent peer never suspected")
	}
	// And the view change it triggered completes.
	c.waitConverged(5*time.Second, "a")
}

func TestDetectorUnsuspectsOnTraffic(t *testing.T) {
	_, p := fdRig(t)
	p.mu.Lock()
	p.fd.suspectLocked("b")
	if !p.fd.isSuspectedLocked("b") {
		p.mu.Unlock()
		t.Fatal("suspectLocked had no effect")
	}
	p.fd.heardLocked("b")
	suspected := p.fd.isSuspectedLocked("b")
	p.mu.Unlock()
	if suspected {
		t.Fatal("suspicion not cleared by inbound traffic")
	}
}

func TestDetectorForgetsUninterestingPeers(t *testing.T) {
	c, p := fdRig(t)
	c.net.Crash("b")
	c.waitConverged(5*time.Second, "a")
	// b is out of every view; the detector must prune its state rather
	// than track the dead process forever.
	c.settle(3 * time.Second)
	p.mu.Lock()
	_, tracked := slices.BinarySearch(p.fd.watch, "b")
	p.mu.Unlock()
	if tracked {
		t.Fatal("detector still tracks a peer outside every view")
	}
}

func TestDetectorSuspectLockedIgnoresSelf(t *testing.T) {
	_, p := fdRig(t)
	p.mu.Lock()
	p.fd.suspectLocked(p.id)
	self := p.fd.isSuspectedLocked(p.id)
	p.mu.Unlock()
	if self {
		t.Fatal("process suspected itself")
	}
}
