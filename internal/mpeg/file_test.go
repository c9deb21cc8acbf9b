package mpeg

import (
	"bytes"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/wire"
)

func TestFileRoundTrip(t *testing.T) {
	in := Generate("casablanca", StreamConfig{Duration: 10 * time.Second, Seed: 3})
	var buf bytes.Buffer
	if _, err := in.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID() != in.ID() || out.FPS() != in.FPS() ||
		out.TotalFrames() != in.TotalFrames() || out.TotalBytes() != in.TotalBytes() {
		t.Fatalf("round trip header mismatch: %v vs %v", out, in)
	}
	for i := 0; i < in.TotalFrames(); i++ {
		if in.Frame(i) != out.Frame(i) {
			t.Fatalf("frame %d differs: %+v vs %+v", i, in.Frame(i), out.Frame(i))
		}
	}
	// Payload regeneration is deterministic from structure alone.
	if !bytes.Equal(in.FrameData(123), out.FrameData(123)) {
		t.Fatal("frame data differs after round trip")
	}
}

func TestReadFromRejectsCorrupt(t *testing.T) {
	good := func() []byte {
		var buf bytes.Buffer
		m := Generate("m", StreamConfig{Duration: time.Second, Seed: 1})
		if _, err := m.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    append([]byte("NOPE"), good[4:]...),
		"truncated":    good[:len(good)/2],
		"trailing":     append(append([]byte{}, good...), 0xFF),
		"zero version": append([]byte(fileMagic), 0),
	}
	for name, data := range cases {
		if _, err := ReadFrom(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: corrupt file accepted", name)
		}
	}
}

// TestReadFromNeverPanics: arbitrary bytes must fail cleanly.
func TestReadFromNeverPanics(t *testing.T) {
	prop := func(data []byte) bool {
		_, _ = ReadFrom(bytes.NewReader(data))
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// hostileCount is a movie header claiming the largest plausible frame
// count, 1<<26, followed by no frames.
var hostileCount = append([]byte(fileMagic), fileVersion, 0, 1, 'x', 0, 30, 0x04, 0, 0, 0)

// TestReadFromBoundsAllocation: a header's frame count cannot make ReadFrom
// allocate beyond what the file's bytes can describe.
func TestReadFromBoundsAllocation(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadFrom(bytes.NewReader(hostileCount)); err == nil {
		t.Fatal("header without frames accepted")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("ReadFrom of a %d-byte file allocated %d bytes", len(hostileCount), got)
	}
}

// FuzzReadFrom feeds arbitrary bytes to the movie-file decoder, which parses
// files fetched from peers. It must never panic; every accepted movie must
// round-trip through WriteTo, and each packet of its shared table must
// decode to its own index, class and size with the payload FrameData gives.
func FuzzReadFrom(f *testing.F) {
	var good bytes.Buffer
	if _, err := Generate("m", StreamConfig{Duration: time.Second, Seed: 1}).WriteTo(&good); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(movieFile("tiny", []int{1, 2, 3, 4, 5, 6}))
	f.Add(movieFile("run", []int{patternRun + 6, 70_000}))
	f.Add(hostileCount)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := m.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("WriteTo does not reproduce the accepted file:\n in %x\nout %x", data, out.Bytes())
		}
		if m.TotalBytes() > 2<<20 {
			return // a valid table, but too large to build on every fuzz input
		}
		tab := m.Packets(1)
		var fr wire.Frame
		for i := 0; i < m.TotalFrames(); i++ {
			pkt := tab.Packet(i)
			if pkt[0] != 1 {
				t.Fatalf("packet %d prefix %#x, want 0x01", i, pkt[0])
			}
			if err := wire.DecodeFrameInto(&fr, pkt[1:]); err != nil {
				t.Fatalf("packet %d: %v", i, err)
			}
			info := m.Frame(i)
			if fr.Movie != m.ID() || int(fr.Index) != i || fr.Class != info.Class || len(fr.Payload) != info.Size {
				t.Fatalf("packet %d decodes to %s/%d class %v size %d, want %s/%d class %v size %d",
					i, fr.Movie, fr.Index, fr.Class, len(fr.Payload), m.ID(), i, info.Class, info.Size)
			}
			if !bytes.Equal(fr.Payload, m.FrameData(i)) {
				t.Fatalf("packet %d payload differs from FrameData", i)
			}
		}
	})
}
