// Package mpeg models MPEG-1 video streams as the paper's VoD service sees
// them: a sequence of typed frames (I/P/B) with realistic sizes, transmitted
// one frame per message. No pixel data is involved — every quantity the
// paper's evaluation measures (frames skipped, frames late, buffer
// occupancies in frames and bytes) depends only on frame timing, sizes and
// types, which this model reproduces.
//
// This substitutes for the paper's real MPEG movies and Optibase hardware
// decoders (see DESIGN.md, substitution 2).
package mpeg

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/wire"
)

// FrameInfo describes one frame of a movie.
type FrameInfo struct {
	Class wire.FrameClass
	Size  int // bytes on the wire
}

// StreamConfig parameterizes synthetic movie generation. The defaults
// reproduce the paper's test stream: a 1.4 Mbps, 30 frames/s MPEG movie.
type StreamConfig struct {
	// Duration of the movie (default 90s, enough for the paper's
	// evaluation scenarios).
	Duration time.Duration
	// FPS is the nominal display rate (default 30).
	FPS int
	// BitRate is the mean stream rate in bits/s (default 1.4e6).
	BitRate int64
	// GOPSize is the group-of-pictures length (default 12: IBBPBBPBBPBB).
	GOPSize int
	// Seed drives the per-frame size variation.
	Seed int64
}

func (c *StreamConfig) fillDefaults() {
	if c.Duration <= 0 {
		c.Duration = 90 * time.Second
	}
	if c.FPS <= 0 {
		c.FPS = 30
	}
	if c.BitRate <= 0 {
		c.BitRate = 1_400_000
	}
	if c.GOPSize <= 0 {
		c.GOPSize = 12
	}
}

// Movie is an immutable synthetic MPEG stream. Safe for concurrent use.
type Movie struct {
	id     string
	fps    int
	frames []FrameInfo
	total  int64 // sum of frame sizes

	pktMu sync.Mutex
	pkts  map[byte]*PacketTable // lazily built, keyed by channel prefix
}

// Generate synthesizes a movie with the given ID and stream parameters.
//
// The GOP structure follows MPEG-1 practice with M=3: an I frame, then
// P frames every third slot with B frames between (IBBPBBPBB...). Frame
// sizes use the usual compression ratios (I ≈ 4x, P ≈ 2x, B ≈ 0.7x the
// base unit) scaled so the stream hits the configured mean bit rate, with
// ±10% deterministic per-frame variation.
func Generate(id string, cfg StreamConfig) *Movie {
	cfg.fillDefaults()
	n := int(cfg.Duration.Seconds() * float64(cfg.FPS))
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Weights per GOP position; the base unit is solved from the target
	// mean frame size.
	weightOf := func(class wire.FrameClass) float64 {
		switch class {
		case wire.FrameI:
			return 4.0
		case wire.FrameP:
			return 2.0
		default:
			return 0.7
		}
	}
	var weightSum float64
	for i := 0; i < cfg.GOPSize; i++ {
		weightSum += weightOf(classAt(i, cfg.GOPSize))
	}
	meanFrame := float64(cfg.BitRate) / 8 / float64(cfg.FPS)
	unit := meanFrame * float64(cfg.GOPSize) / weightSum

	m := &Movie{id: id, fps: cfg.FPS, frames: make([]FrameInfo, n)}
	for i := 0; i < n; i++ {
		class := classAt(i%cfg.GOPSize, cfg.GOPSize)
		jitter := 0.9 + 0.2*rng.Float64()
		size := int(unit * weightOf(class) * jitter)
		if size < 64 {
			size = 64
		}
		m.frames[i] = FrameInfo{Class: class, Size: size}
		m.total += int64(size)
	}
	return m
}

// classAt returns the frame class at GOP position pos (0-based).
func classAt(pos, gopSize int) wire.FrameClass {
	switch {
	case pos == 0:
		return wire.FrameI
	case pos%3 == 0 && pos < gopSize:
		return wire.FrameP
	default:
		return wire.FrameB
	}
}

// ID returns the movie identifier.
func (m *Movie) ID() string { return m.id }

// FPS returns the nominal display rate.
func (m *Movie) FPS() int { return m.fps }

// TotalFrames returns the number of frames in the movie.
func (m *Movie) TotalFrames() int { return len(m.frames) }

// Duration returns the playing time at the nominal rate.
func (m *Movie) Duration() time.Duration {
	return time.Duration(len(m.frames)) * time.Second / time.Duration(m.fps)
}

// TotalBytes returns the movie's size on the wire.
func (m *Movie) TotalBytes() int64 { return m.total }

// MeanBitRate returns the stream's mean rate in bits/s.
func (m *Movie) MeanBitRate() int64 {
	if len(m.frames) == 0 {
		return 0
	}
	return m.total * 8 * int64(m.fps) / int64(len(m.frames))
}

// Frame returns the metadata of frame i. It panics on out-of-range i, which
// is always a caller bug (offsets are validated at the protocol layer).
func (m *Movie) Frame(i int) FrameInfo {
	return m.frames[i]
}

// FrameData materializes the synthetic payload of frame i, a deterministic
// byte pattern of the frame's exact size. For a frame of size n:
//
//	byte 0:      the frame class
//	bytes 1–4:   i as a big-endian uint32 (zero bytes when n < 5)
//	byte j ≥ 5:  byte(i + j), a run that repeats every 256 bytes
//
// The embedded class and index let tests verify end-to-end integrity. The
// pattern is a contract: the shared packet tables and every sender's
// payload depend on it, and the package tests pin it byte for byte.
func (m *Movie) FrameData(i int) []byte {
	return m.AppendFrameData(nil, i)
}

// patternRun is the longest payload run one copy from payloadPattern
// covers: longer than any frame Generate makes at the default bit rate.
const patternRun = 32 << 10

// payloadPattern[k] = byte(k). Every payload run byte(i+j), j ≥ 5, is a
// window of it starting at (i+5) mod 256.
var payloadPattern = func() (p [256 + patternRun]byte) {
	for k := range p {
		p[k] = byte(k)
	}
	return p
}()

// AppendFrameData appends frame i's synthetic payload (see FrameData) to b
// and returns the extended slice, so streaming senders can reuse one
// scratch buffer instead of materializing a fresh payload per frame. The
// periodic run is block-copied from a static pattern, and runs longer than
// the pattern continue by doubling what is already written, so the cost is
// memory bandwidth rather than per-byte work.
func (m *Movie) AppendFrameData(b []byte, i int) []byte {
	info := m.frames[i]
	start := len(b)
	b = slices.Grow(b, info.Size)[:start+info.Size]
	data := b[start:]
	data[0] = byte(info.Class)
	if info.Size < 5 {
		clear(data[1:])
		return b
	}
	binary.BigEndian.PutUint32(data[1:5], uint32(i))
	run := data[5:]
	off := (i + 5) & 0xFF
	// When the run continues past the first copy, n is patternRun: a whole
	// number of 256-byte periods, so run[n:] repeats run[:n].
	n := copy(run, payloadPattern[off:off+patternRun])
	for ; n < len(run); n *= 2 {
		copy(run[n:], run[:n])
	}
	return b
}

// PacketTable holds every frame of one movie as a fully framed, ready-to-send
// datagram — a transport channel prefix byte followed by the wire-encoded
// Frame message — packed back to back in a single contiguous arena. The table
// is immutable once built; all sessions streaming the movie share it, so N
// concurrent viewers of one title cost one table, not N per-session frame
// buffers, and senders ship table slices over a no-copy stable-send path.
type PacketTable struct {
	arena []byte
	offs  []int // offs[i]..offs[i+1] bounds packet i; len(offs) = frames+1
}

// Packet returns the framed datagram for frame i. The slice aliases the
// shared arena and must never be written to; its capacity is clipped so even
// an append cannot reach the next packet.
func (t *PacketTable) Packet(i int) []byte {
	return t.arena[t.offs[i]:t.offs[i+1]:t.offs[i+1]]
}

// WireSize returns the size of frame i's encoded Frame message, excluding
// the one-byte channel prefix — the number a per-message sender would have
// counted before handing the message to the mux.
func (t *PacketTable) WireSize(i int) int {
	return t.offs[i+1] - t.offs[i] - 1
}

// Bytes returns the arena footprint, for capacity accounting in tests.
func (t *PacketTable) Bytes() int { return len(t.arena) }

// Packets returns the movie's shared table of preframed datagrams for the
// given channel prefix byte, building it on first use. Each entry is
// byte-identical to what a per-session encoder would produce: prefix, then
// AppendMessage of a Frame{Movie, Index, Class, Payload} with the synthetic
// payload from AppendFrameData. The build is one pass over an arena sized
// exactly up front: each frame's header, then its payload, is written in
// place, with no scratch payload and no second copy.
func (m *Movie) Packets(prefix byte) *PacketTable {
	m.pktMu.Lock()
	defer m.pktMu.Unlock()
	if t, ok := m.pkts[prefix]; ok {
		return t
	}
	n := len(m.frames)
	// Per-frame overhead: prefix, kind, movie-ID length prefix + bytes,
	// index, class, payload length prefix.
	per := 1 + 1 + 2 + len(m.id) + 4 + 1 + 4
	arena := make([]byte, 0, int(m.total)+n*per)
	offs := make([]int, n+1)
	for i, info := range m.frames {
		offs[i] = len(arena)
		arena = append(arena, prefix)
		arena = wire.AppendFrameHeader(arena, m.id, uint32(i), info.Class, info.Size)
		arena = m.AppendFrameData(arena, i)
	}
	offs[n] = len(arena)
	t := &PacketTable{arena: arena, offs: offs}
	if m.pkts == nil {
		m.pkts = make(map[byte]*PacketTable, 1)
	}
	m.pkts[prefix] = t
	return t
}

// PrevIFrame returns the largest I-frame index ≤ i. Random access lands on
// I frames because incremental frames cannot be decoded without them.
func (m *Movie) PrevIFrame(i int) int {
	if i >= len(m.frames) {
		i = len(m.frames) - 1
	}
	for ; i > 0; i-- {
		if m.frames[i].Class == wire.FrameI {
			return i
		}
	}
	return 0
}

// NextIFrame returns the smallest I-frame index ≥ i, or -1 if none remains.
func (m *Movie) NextIFrame(i int) int {
	if i < 0 {
		i = 0
	}
	for ; i < len(m.frames); i++ {
		if m.frames[i].Class == wire.FrameI {
			return i
		}
	}
	return -1
}

// String implements fmt.Stringer.
func (m *Movie) String() string {
	return fmt.Sprintf("movie %s: %d frames, %v, %d kbit/s",
		m.id, len(m.frames), m.Duration(), m.MeanBitRate()/1000)
}
