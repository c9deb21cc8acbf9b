package mpeg

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/wire"
)

func paperMovie() *Movie {
	return Generate("casablanca", StreamConfig{Seed: 1})
}

func TestGenerateDefaults(t *testing.T) {
	m := paperMovie()
	if got := m.TotalFrames(); got != 2700 {
		t.Fatalf("TotalFrames = %d, want 2700 (90s × 30fps)", got)
	}
	if got := m.FPS(); got != 30 {
		t.Fatalf("FPS = %d, want 30", got)
	}
	if got := m.Duration(); got != 90*time.Second {
		t.Fatalf("Duration = %v, want 90s", got)
	}
}

func TestMeanBitRateNearTarget(t *testing.T) {
	m := paperMovie()
	rate := m.MeanBitRate()
	if rate < 1_330_000 || rate > 1_470_000 {
		t.Fatalf("mean bit rate %d outside ±5%% of 1.4 Mbps", rate)
	}
}

func TestGOPStructure(t *testing.T) {
	m := paperMovie()
	// GOP of 12 with M=3: positions 0=I, 3/6/9=P, rest B.
	for i := 0; i < 48; i++ {
		got := m.Frame(i).Class
		var want wire.FrameClass
		switch {
		case i%12 == 0:
			want = wire.FrameI
		case i%3 == 0:
			want = wire.FrameP
		default:
			want = wire.FrameB
		}
		if got != want {
			t.Fatalf("frame %d class = %v, want %v", i, got, want)
		}
	}
}

func TestFrameSizeOrdering(t *testing.T) {
	m := paperMovie()
	// Averaged over the movie, I frames must be much larger than P, and
	// P larger than B — the compression structure the discard policy
	// depends on.
	var sum [4]int64
	var cnt [4]int64
	for i := 0; i < m.TotalFrames(); i++ {
		f := m.Frame(i)
		sum[f.Class] += int64(f.Size)
		cnt[f.Class]++
	}
	avgI := sum[wire.FrameI] / cnt[wire.FrameI]
	avgP := sum[wire.FrameP] / cnt[wire.FrameP]
	avgB := sum[wire.FrameB] / cnt[wire.FrameB]
	if !(avgI > avgP && avgP > avgB) {
		t.Fatalf("size ordering violated: I=%d P=%d B=%d", avgI, avgP, avgB)
	}
	if float64(avgI) < 1.8*float64(avgP) {
		t.Fatalf("I frames (%d) not ≫ P frames (%d)", avgI, avgP)
	}
}

func TestFramesFitInDatagram(t *testing.T) {
	m := paperMovie()
	for i := 0; i < m.TotalFrames(); i++ {
		if s := m.Frame(i).Size; s > 50_000 {
			t.Fatalf("frame %d is %d bytes; exceeds one-frame-per-datagram design", i, s)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate("m", StreamConfig{Seed: 42})
	b := Generate("m", StreamConfig{Seed: 42})
	if a.TotalBytes() != b.TotalBytes() {
		t.Fatal("same seed produced different movies")
	}
	c := Generate("m", StreamConfig{Seed: 43})
	if a.TotalBytes() == c.TotalBytes() {
		t.Fatal("different seeds produced identical movies (suspicious)")
	}
}

func TestFrameData(t *testing.T) {
	m := paperMovie()
	d := m.FrameData(1234)
	if len(d) != m.Frame(1234).Size {
		t.Fatalf("FrameData length %d != declared size %d", len(d), m.Frame(1234).Size)
	}
	idx := int(d[1])<<24 | int(d[2])<<16 | int(d[3])<<8 | int(d[4])
	if idx != 1234 {
		t.Fatalf("embedded index = %d, want 1234", idx)
	}
	if wire.FrameClass(d[0]) != m.Frame(1234).Class {
		t.Fatalf("embedded class mismatch")
	}
	for _, i := range []int{0, 1, 250, 251, 1234, m.TotalFrames() - 1} {
		d := m.FrameData(i)
		for j := 5; j < len(d); j++ {
			if d[j] != byte(i+j) {
				t.Fatalf("frame %d byte %d = %#x, want byte(i+j) = %#x", i, j, d[j], byte(i+j))
			}
		}
	}
}

// refFrameData is the per-byte payload loop the block-copy fill replaced,
// kept as the oracle for the documented payload pattern.
func refFrameData(m *Movie, i int) []byte {
	info := m.Frame(i)
	data := make([]byte, info.Size)
	data[0] = byte(info.Class)
	if info.Size >= 5 {
		data[1] = byte(i >> 24)
		data[2] = byte(i >> 16)
		data[3] = byte(i >> 8)
		data[4] = byte(i)
	}
	for j := 5; j < len(data); j++ {
		data[j] = byte(i + j)
	}
	return data
}

// movieFile encodes a movie file with the given frame sizes (all B frames
// except the first) for ReadFrom.
func movieFile(id string, sizes []int) []byte {
	b := append([]byte(fileMagic), fileVersion)
	b = wire.AppendString(b, id)
	b = wire.AppendU16(b, 30)
	b = wire.AppendU32(b, uint32(len(sizes)))
	for i, size := range sizes {
		class := wire.FrameB
		if i == 0 {
			class = wire.FrameI
		}
		b = wire.AppendU8(b, uint8(class))
		b = wire.AppendU32(b, uint32(size))
	}
	return b
}

// TestPacketTableMatchesEncode pins every byte of the shared packet table:
// packet i is the prefix followed by the encoded Frame carrying the
// reference payload of frame i. AppendFrameData into a reused scratch
// buffer full of stale bytes must give the same payload.
func TestPacketTableMatchesEncode(t *testing.T) {
	small, err := ReadFrom(bytes.NewReader(movieFile("tiny", []int{1, 2, 3, 4, 5, 6, 6, 5, 4, 3, 2, 1})))
	if err != nil {
		t.Fatal(err)
	}
	big, err := ReadFrom(bytes.NewReader(movieFile("big", []int{1 << 20, patternRun + 4, patternRun + 5, patternRun + 6, 3*patternRun + 77})))
	if err != nil {
		t.Fatal(err)
	}
	movies := map[string]*Movie{
		"default 90s": paperMovie(),
		// I frames ≈ 100 KB and P frames ≈ 50 KB exceed the 32 KiB pattern.
		"high bit rate": Generate("hd", StreamConfig{Duration: 3 * time.Second, BitRate: 8_000_000, Seed: 2}),
		"sizes 1-6":     small,
		"long runs":     big,
	}
	const prefix = 0x7E
	stale := bytes.Repeat([]byte{0xFF}, 1<<20)
	for name, m := range movies {
		tab := m.Packets(prefix)
		want := 0
		for i := 0; i < m.TotalFrames(); i++ {
			ref := refFrameData(m, i)
			got := m.AppendFrameData(stale[:0], i)
			if !bytes.Equal(got, ref) {
				t.Fatalf("%s: AppendFrameData(%d) into a stale buffer differs from the reference payload", name, i)
			}
			for k := range got {
				got[k] = 0xFF
			}
			enc := wire.Encode(&wire.Frame{Movie: m.ID(), Index: uint32(i), Class: m.Frame(i).Class, Payload: ref})
			if got := tab.Packet(i); !bytes.Equal(got, append([]byte{prefix}, enc...)) {
				t.Fatalf("%s: packet %d (frame size %d) differs from prefix+Encode", name, i, m.Frame(i).Size)
			}
			if tab.WireSize(i) != len(enc) {
				t.Fatalf("%s: WireSize(%d) = %d, want %d", name, i, tab.WireSize(i), len(enc))
			}
			want += 1 + len(enc)
		}
		if tab.Bytes() != want {
			t.Fatalf("%s: arena %d bytes, want %d", name, tab.Bytes(), want)
		}
	}
}

func TestPrevNextIFrame(t *testing.T) {
	m := paperMovie()
	tests := []struct {
		in, prev, next int
	}{
		{0, 0, 0},
		{1, 0, 12},
		{11, 0, 12},
		{12, 12, 12},
		{13, 12, 24},
		{2699, 2688, -1},
	}
	for _, tt := range tests {
		if got := m.PrevIFrame(tt.in); got != tt.prev {
			t.Errorf("PrevIFrame(%d) = %d, want %d", tt.in, got, tt.prev)
		}
		if got := m.NextIFrame(tt.in); got != tt.next {
			t.Errorf("NextIFrame(%d) = %d, want %d", tt.in, got, tt.next)
		}
	}
}

func TestPrevIFrameClampsOutOfRange(t *testing.T) {
	m := paperMovie()
	if got := m.PrevIFrame(99999); got != 2688 {
		t.Fatalf("PrevIFrame(out of range) = %d, want last I frame 2688", got)
	}
	if got := m.NextIFrame(-5); got != 0 {
		t.Fatalf("NextIFrame(-5) = %d, want 0", got)
	}
}

// TestIFrameReachableProperty: from any frame, PrevIFrame lands on an I
// frame at or before it — the invariant seeks rely on.
func TestIFrameReachableProperty(t *testing.T) {
	m := paperMovie()
	prop := func(i uint16) bool {
		idx := int(i) % m.TotalFrames()
		p := m.PrevIFrame(idx)
		return p <= idx && m.Frame(p).Class == wire.FrameI
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestShortMovie(t *testing.T) {
	m := Generate("short", StreamConfig{Duration: 100 * time.Millisecond, FPS: 30})
	if m.TotalFrames() != 3 {
		t.Fatalf("TotalFrames = %d, want 3", m.TotalFrames())
	}
	if m.Frame(0).Class != wire.FrameI {
		t.Fatal("movie must start with an I frame")
	}
}

func BenchmarkGenerate90s(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Generate("m", StreamConfig{Seed: int64(i)})
	}
}

func BenchmarkFrameData(b *testing.B) {
	m := paperMovie()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.FrameData(i % m.TotalFrames())
	}
}

// BenchmarkPackets90s builds the paper movie's shared packet table once per
// iteration, on a fresh Movie value so no table is reused across iterations.
func BenchmarkPackets90s(b *testing.B) {
	m := paperMovie()
	b.SetBytes(int64(m.Packets(0).Bytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := &Movie{id: m.id, fps: m.fps, frames: m.frames, total: m.total}
		fresh.Packets(0)
	}
}
