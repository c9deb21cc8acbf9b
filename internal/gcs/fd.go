package gcs

import (
	"slices"
	"time"
)

// detector is the process-level unreliable failure detector: every
// HeartbeatInterval the process pings each peer of interest; a peer silent
// for SuspectTimeout becomes suspected. Any inbound datagram counts as life,
// so heartbeats only add traffic on otherwise idle links. The paper requires
// exactly this: "a (possibly unreliable) failure detection mechanism".
//
// The watch set is a sorted slice with the per-peer state in parallel
// slices, so the per-packet and per-tick paths are a binary search and a
// linear walk rather than string-keyed map traffic.
//
// All methods require the owning Process's lock.
type detector struct {
	p *Process

	// watch is the sorted set of peers this process pings and watches;
	// heard and suspected run parallel to it. watch is reallocated whenever
	// the set changes and never written afterwards, so a returned watch is
	// an immutable snapshot callers may hold after dropping the lock.
	watch     []ProcessID
	heard     []time.Time
	suspected []bool

	// strays are suspicions of processes outside the watch set: a
	// view-change candidate declared unresponsive before the next rebuild
	// took it in. Hearing from a stray clears it; a rebuild that adds it
	// to the watch set carries the suspicion over.
	strays []ProcessID

	scratch []ProcessID // peersLocked's rebuild buffer
	newly   []ProcessID // checkLocked's result buffer
}

func newDetector(p *Process) *detector { return &detector{p: p} }

// peersLocked returns every process this one should ping and watch: the
// co-members of all views plus pending view-change candidates and foreign
// (joining/merging) processes. The set is rebuilt every heartbeat tick but
// only changes on membership events; the per-peer state is touched only
// when it does.
func (d *detector) peersLocked() []ProcessID {
	set := d.scratch[:0]
	for _, m := range d.p.ordered {
		if !m.active {
			continue
		}
		set = append(set, m.view.Members...)
		for id := range m.foreign {
			set = append(set, id)
		}
		if m.prop != nil {
			set = append(set, m.prop.candidates...)
		}
		if m.status == statusFlushing {
			set = append(set, m.flushOldView.Members...)
			set = append(set, m.curPID.Coord)
		}
	}
	slices.Sort(set)
	set = slices.Compact(set)
	if i, ok := slices.BinarySearch(set, d.p.id); ok {
		set = slices.Delete(set, i, i+1)
	}
	d.scratch = set
	if !slices.Equal(set, d.watch) {
		d.rewatchLocked(set)
	}
	return d.watch
}

// rewatchLocked replaces the watch set with a copy of set, carrying over
// the state of peers that stay and forgetting peers no longer of interest
// so state does not grow forever.
func (d *detector) rewatchLocked(set []ProcessID) {
	now := d.p.cfg.Clock.Now()
	watch := slices.Clone(set)
	heard := make([]time.Time, len(watch))
	suspected := make([]bool, len(watch))
	j := 0
	for i, id := range watch {
		for j < len(d.watch) && d.watch[j] < id {
			j++
		}
		if j < len(d.watch) && d.watch[j] == id {
			heard[i], suspected[i] = d.heard[j], d.suspected[j]
			continue
		}
		// Grace period: a peer becomes suspectable only after it has had
		// one full timeout to say anything.
		heard[i] = now
		suspected[i] = d.unstrayLocked(id)
	}
	d.watch, d.heard, d.suspected = watch, heard, suspected
}

// unstrayLocked drops id from the stray suspicions, reporting whether it
// was there.
func (d *detector) unstrayLocked(id ProcessID) bool {
	if i := slices.Index(d.strays, id); i >= 0 {
		d.strays = slices.Delete(d.strays, i, i+1)
		return true
	}
	return false
}

// heardLocked records life from a peer, clearing any suspicion.
func (d *detector) heardLocked(from ProcessID) {
	if i, ok := slices.BinarySearch(d.watch, from); ok {
		d.heard[i] = d.p.cfg.Clock.Now()
		d.suspected[i] = false
	} else if len(d.strays) > 0 {
		d.unstrayLocked(from)
	}
}

// checkLocked scans for peers that newly exceeded the suspect timeout and
// returns them in ascending order. The result is scratch, valid until the
// next call.
func (d *detector) checkLocked() []ProcessID {
	now := d.p.cfg.Clock.Now()
	newly := d.newly[:0]
	for i, id := range d.watch {
		if !d.suspected[i] && now.Sub(d.heard[i]) >= d.p.cfg.SuspectTimeout {
			d.suspected[i] = true
			newly = append(newly, id)
		}
	}
	d.newly = newly
	return newly
}

// isSuspectedLocked reports whether id is currently suspected.
func (d *detector) isSuspectedLocked(id ProcessID) bool {
	if i, ok := slices.BinarySearch(d.watch, id); ok {
		return d.suspected[i]
	}
	return len(d.strays) > 0 && slices.Contains(d.strays, id)
}

// suspectLocked marks id suspected immediately — used when the view-change
// protocol itself establishes unresponsiveness (a candidate that never
// answers despite retransmissions). Hearing from the peer clears it again.
func (d *detector) suspectLocked(id ProcessID) {
	if id == d.p.id {
		return
	}
	if i, ok := slices.BinarySearch(d.watch, id); ok {
		d.suspected[i] = true
	} else if !slices.Contains(d.strays, id) {
		d.strays = append(d.strays, id)
	}
}
