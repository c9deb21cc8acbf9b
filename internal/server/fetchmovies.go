package server

import (
	"time"

	"repro/internal/gcs"
	"repro/internal/mpeg"
)

// fetchNext replicates the missing movies one at a time, trying each peer
// in turn, and starts serving each movie the moment it lands (joining its
// movie group triggers the usual knowledge exchange and redistribution, so
// the fresh server immediately absorbs load — §7's "new server brought up
// without any special preparations").
func (s *Server) fetchNext(missing []string, peers []gcs.ProcessID, peerIdx int) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed || len(missing) == 0 {
		return
	}
	movieID := missing[0]
	if s.cfg.Catalog.Has(movieID) {
		s.later(func() { s.fetchNext(missing[1:], peers, 0) })
		return
	}
	if len(peers) == 0 {
		return // no peers configured; nothing to fetch from
	}
	peerIdx = s.fetchPeer(peers, peerIdx)
	peer := peers[peerIdx%len(peers)]
	err := s.fetcher.Fetch(movieID, peer, func(m *mpeg.Movie, err error) {
		if err != nil {
			// This peer is down or lacks the movie: rotate to the next
			// one after a beat. The loop never gives up — a peer holding
			// the movie may come up later.
			s.cfg.Clock.AfterFunc(time.Second, func() {
				s.fetchNext(missing, peers, peerIdx+1)
			})
			return
		}
		s.cfg.Catalog.Add(m)
		// Joining the movie group may race a concurrent shutdown; a
		// failure here only means the movie sits in the catalog unserved.
		_ = s.serveMovie(movieID, peers)
		s.later(func() { s.fetchNext(missing[1:], peers, 0) })
	})
	if err != nil {
		// A transfer is already in flight (should not happen — fetches
		// are sequential); retry shortly.
		s.cfg.Clock.AfterFunc(time.Second, func() {
			s.fetchNext(missing, peers, peerIdx)
		})
	}
}

// fetchPeer returns the rotation index of the next peer to fetch from: the
// first at or after idx that is in the current server-group view, so a
// restarted server skips peers the group already knows are gone. While the
// view holds no other server, plain rotation.
func (s *Server) fetchPeer(peers []gcs.ProcessID, idx int) int {
	s.mu.Lock()
	sg := s.serverGroup
	s.mu.Unlock()
	if sg == nil {
		return idx
	}
	v := sg.View()
	for k := range peers {
		if p := peers[(idx+k)%len(peers)]; string(p) != s.cfg.ID && v.Includes(p) {
			return idx + k
		}
	}
	return idx
}
