package gcs

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
)

// codecSeeds returns one valid encoding of every gcs message kind plus a
// few hostile shapes: truncations and length prefixes past the end.
func codecSeeds() [][]byte {
	view := ViewID{Seq: 7, Coord: "srv-1"}
	pid := proposalID{Round: 3, Coord: "srv-1"}
	members := []ProcessID{"client-1", "srv-1", "srv-2"}
	vec := map[ProcessID]uint64{"client-1": 4, "srv-1": 9, "srv-2": 0}
	return [][]byte{
		encodeHeartbeat(),
		appendDirect(nil, []byte("open-reply")),
		appendAnycast(nil, "vod.servers", []byte("open")),
		encodeMcast(&msgMcast{group: "g", view: view, sender: "srv-2", seq: 12, payload: []byte{payloadPlain, 1, 2}}),
		encodeNak(&msgNak{group: "g", view: view, sender: "srv-2", from: 3, to: 9}),
		encodeAckVec(&msgAckVec{group: "g", view: view,
			vec:    idVec{ids: members, vals: []uint64{4, 9, 0}},
			contig: idVec{ids: members, vals: []uint64{4, 9, 2}}}),
		encodeAckVec(&msgAckVec{group: "g", view: view}),
		encodePresence(&msgPresence{group: "g", view: view, members: members}),
		encodePropose(&msgPropose{group: "g", pid: pid, candidates: members}),
		encodeSyncInfo(&msgSyncInfo{group: "g", pid: pid, oldView: view, oldMembers: members, sendSeq: 5, recvNext: vec}),
		encodeCut(&msgCut{group: "g", pid: pid, targets: vec}),
		encodeCutDone(&msgCutDone{group: "g", pid: pid}),
		encodeInstall(&msgInstall{group: "g", pid: pid, view: view, members: members}),
		encodeLeave(&msgLeave{group: "g"}),
		encodeAgreedReq(&msgAgreedReq{group: "g", seq: 2, payload: []byte("x")}),
		{},                      // empty
		{0},                     // kind 0
		{kindAckVec},            // truncated header
		{kindMcast, 0xFF, 0xFF}, // string length past end
		{kindAckVec, 0, 1, 'g', 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0xFF, 0xFF}, // hostile vector count
	}
}

// reencode returns the encoding of the kinds whose encoders are canonical
// for every decodable input, or nil for other kinds.
func reencode(msg any) []byte {
	switch m := msg.(type) {
	case *msgAckVec:
		return encodeAckVec(m)
	case *msgMcast:
		return encodeMcast(m)
	case *msgNak:
		return encodeNak(m)
	case *msgPresence:
		return encodePresence(m)
	}
	return nil
}

// sameMsg compares two decoded messages. Ack vectors compare by content: a
// recycled message decodes an empty vector into a non-nil empty slice.
func sameMsg(a, b any) bool {
	if x, ok := a.(*msgAckVec); ok {
		y, ok := b.(*msgAckVec)
		return ok && x.group == y.group && x.view == y.view &&
			slices.Equal(x.vec.ids, y.vec.ids) && slices.Equal(x.vec.vals, y.vec.vals) &&
			slices.Equal(x.contig.ids, y.contig.ids) && slices.Equal(x.contig.vals, y.contig.vals)
	}
	return reflect.DeepEqual(a, b)
}

// FuzzCodecDecode feeds arbitrary bytes to the gcs decoder. No input may
// panic it; ack vectors, multicasts, NAKs and presence announcements must
// re-encode to exactly the input bytes; and decoding into a codec whose
// free lists hold dirty recycled messages must give the same result as a
// fresh codec.
func FuzzCodecDecode(f *testing.F) {
	seeds := codecSeeds()
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var fresh codec
		m1, err1 := fresh.decode(b)

		// Dirty every pooled kind with other contents, then recycle them
		// so the decode below reuses them.
		var dirty codec
		for _, s := range seeds {
			if m, err := dirty.decode(s); err == nil {
				dirty.recycle(m)
			}
		}
		m2, err2 := dirty.decode(b)

		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("fresh err %v, recycled err %v\ninput %x", err1, err2, b)
		}
		if err1 != nil {
			return
		}
		if !sameMsg(m1, m2) {
			t.Fatalf("recycled decode differs:\nfresh    %#v\nrecycled %#v\ninput %x", m1, m2, b)
		}
		if enc := reencode(m1); enc != nil && !bytes.Equal(enc, b) {
			t.Fatalf("re-encoding differs:\ninput  %x\nencode %x", b, enc)
		}
	})
}
