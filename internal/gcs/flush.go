package gcs

import (
	"fmt"

	"repro/internal/clock"
)

// This file implements the view-change protocol. One member — the lowest
// unsuspected ID, the "coordinator" — drives three phases over a candidate
// membership:
//
//	PROPOSE  → every candidate freezes delivery and reports its cut
//	            (sendSeq + per-sender delivered counts)       [msgSyncInfo]
//	CUT      → coordinator broadcasts the per-sender delivery targets
//	            (max over all reports); candidates deliver and NAK-repair
//	            up to the targets, then confirm                [msgCutDone]
//	INSTALL  → coordinator assigns the new ViewID and membership; members
//	            reset multicast state and resume.
//
// The freeze–cut–repair sequence gives virtual synchrony: every member that
// survives from view V to view V' delivered exactly the same set of V's
// messages before installing V'. Competing proposals (concurrent failures,
// merges) are serialized by proposalID: candidates follow the highest
// proposal they have seen, and abandoned coordinators stand down.

type proposalPhase int

const (
	phaseSync proposalPhase = iota + 1
	phaseCut
)

// proposal is coordinator-side state for one view-change attempt.
type proposal struct {
	pid        proposalID
	candidates []ProcessID
	phase      proposalPhase
	syncInfos  map[ProcessID]*msgSyncInfo
	cutDone    map[ProcessID]bool
	// Delivery targets are computed PER OLD VIEW: sequence numbers are
	// meaningless across views, and a merge (or a member stranded one
	// view behind) brings candidates from several old views into one
	// proposal. Each candidate receives the cut of its own old view.
	targetsByView map[ViewID]map[ProcessID]uint64
	viewOf        map[ProcessID]ViewID
	retries       int
	timer         clock.Timer
}

func (pr *proposal) has(id ProcessID) bool {
	for _, c := range pr.candidates {
		if c == id {
			return true
		}
	}
	return false
}

// startProposalLocked begins (or restarts) a view change coordinated by
// this member over the currently desired candidate set.
func (m *Member) startProposalLocked(cb *callbacks) {
	if !m.active || m.leaving {
		return
	}
	candidates := m.desiredCandidatesLocked()
	if len(candidates) == 0 {
		candidates = []ProcessID{m.p.id}
	}
	if m.round < m.curPID.Round {
		m.round = m.curPID.Round
	}
	m.round++
	pid := proposalID{Round: m.round, Coord: m.p.id}

	if m.prop != nil && m.prop.timer != nil {
		m.prop.timer.Stop()
	}
	pr := &proposal{
		pid:        pid,
		candidates: candidates,
		phase:      phaseSync,
		syncInfos:  make(map[ProcessID]*msgSyncInfo, len(candidates)),
		cutDone:    make(map[ProcessID]bool, len(candidates)),
	}
	m.prop = pr
	pr.timer = m.p.cfg.Clock.AfterFunc(m.p.cfg.ProposalTimeout, func() { m.proposalTimeout(pid) })

	msg := &msgPropose{group: m.group, pid: pid, candidates: candidates}
	pkt := encodePropose(msg)
	for _, id := range candidates {
		if id != m.p.id {
			_ = m.p.cfg.Endpoint.Send(id, pkt)
		}
	}
	m.onProposeLocked(msg, cb)
}

// proposalTimeout fires when a phase stalls: first it retransmits to the
// laggards, then it declares them failed and restarts without them.
func (m *Member) proposalTimeout(pid proposalID) {
	var cb callbacks
	m.p.mu.Lock()
	pr := m.prop
	if !m.active || pr == nil || pr.pid != pid {
		m.p.mu.Unlock()
		return
	}
	missing := pr.missingLocked()
	if len(missing) == 0 {
		m.p.mu.Unlock()
		return
	}
	pr.retries++
	if pr.retries <= 2 {
		// Retransmit the current phase message to the laggards.
		for _, id := range missing {
			var pkt []byte
			switch pr.phase {
			case phaseSync:
				pkt = encodePropose(&msgPropose{group: m.group, pid: pr.pid, candidates: pr.candidates})
			case phaseCut:
				pkt = encodeCut(&msgCut{group: m.group, pid: pr.pid, targets: pr.targetsByView[pr.viewOf[id]]})
			}
			_ = m.p.cfg.Endpoint.Send(id, pkt)
		}
		pr.timer = m.p.cfg.Clock.AfterFunc(m.p.cfg.ProposalTimeout, func() { m.proposalTimeout(pid) })
	} else {
		// Give up on the laggards: suspect them so the candidate
		// computation excludes them, and restart the view change.
		for _, id := range missing {
			m.p.fd.suspectLocked(id)
		}
		m.startProposalLocked(&cb)
	}
	m.p.mu.Unlock()
	cb.run()
}

// missingLocked returns candidates that have not completed the current
// phase.
func (pr *proposal) missingLocked() []ProcessID {
	var out []ProcessID
	for _, id := range pr.candidates {
		switch pr.phase {
		case phaseSync:
			if pr.syncInfos[id] == nil {
				out = append(out, id)
			}
		case phaseCut:
			if !pr.cutDone[id] {
				out = append(out, id)
			}
		}
	}
	return out
}

// onProposeLocked is the participant's entry into a view change.
func (m *Member) onProposeLocked(msg *msgPropose, cb *callbacks) {
	if m.leaving {
		return
	}
	in := false
	for _, id := range msg.candidates {
		if id == m.p.id {
			in = true
			break
		}
	}
	if !in {
		return // we are being excluded (e.g. we announced a leave)
	}
	switch {
	case msg.pid.supersedes(m.curPID):
		m.curPID = msg.pid
		m.flushCandidates = append([]ProcessID(nil), msg.candidates...)
		if m.status == statusNormal {
			m.status = statusFlushing
			m.flushOldView = m.view
			m.p.ctr.flushRounds.Inc()
		}
		if m.prop != nil && m.prop.pid != msg.pid {
			// Our own proposal lost; stand down as coordinator.
			if m.prop.timer != nil {
				m.prop.timer.Stop()
			}
			m.prop = nil
		}
		m.cutTargets = nil
		m.sentCutDone = false
	case msg.pid == m.curPID:
		// Retransmitted propose; answer again below.
	default:
		return // stale proposal
	}
	m.flushHeard = m.p.cfg.Clock.Now()

	info := &msgSyncInfo{
		group:      m.group,
		pid:        m.curPID,
		oldView:    m.flushOldView.ID,
		oldMembers: append([]ProcessID(nil), m.flushOldView.Members...),
		sendSeq:    m.ms.sendSeq,
		recvNext:   make(map[ProcessID]uint64, len(m.ms.members)),
	}
	for s, sender := range m.ms.members {
		info.recvNext[sender] = m.ms.recvNext[s]
	}
	if m.curPID.Coord == m.p.id {
		m.onSyncInfoLocked(m.p.id, info, cb)
	} else {
		_ = m.p.cfg.Endpoint.Send(m.curPID.Coord, encodeSyncInfo(info))
	}
}

// onSyncInfoLocked collects candidate reports at the coordinator.
func (m *Member) onSyncInfoLocked(from ProcessID, msg *msgSyncInfo, cb *callbacks) {
	pr := m.prop
	if pr == nil || msg.pid != pr.pid || pr.phase != phaseSync || !pr.has(from) {
		return
	}
	pr.syncInfos[from] = msg
	if len(pr.syncInfos) < len(pr.candidates) {
		return
	}

	// Everyone reported: compute the delivery targets, separately per old
	// view (sequence numbers do not compare across views). Within each
	// old view, a sender's target is the max of its own sendSeq (if it
	// reported) and every same-view reporter's delivered count — so
	// nothing any same-view survivor sent or delivered is lost.
	pr.targetsByView = make(map[ViewID]map[ProcessID]uint64)
	pr.viewOf = make(map[ProcessID]ViewID, len(pr.syncInfos))
	for reporter, info := range pr.syncInfos {
		pr.viewOf[reporter] = info.oldView
		targets := pr.targetsByView[info.oldView]
		if targets == nil {
			targets = make(map[ProcessID]uint64)
			pr.targetsByView[info.oldView] = targets
		}
		if info.sendSeq > targets[reporter] {
			targets[reporter] = info.sendSeq
		}
		for sender, next := range info.recvNext {
			if next > targets[sender] {
				targets[sender] = next
			}
		}
	}
	pr.phase = phaseCut
	pr.retries = 0
	if pr.timer != nil {
		pr.timer.Stop()
	}
	pid := pr.pid
	pr.timer = m.p.cfg.Clock.AfterFunc(m.p.cfg.ProposalTimeout, func() { m.proposalTimeout(pid) })

	for _, id := range pr.candidates {
		cut := &msgCut{group: m.group, pid: pr.pid, targets: pr.targetsByView[pr.viewOf[id]]}
		if id == m.p.id {
			m.onCutLocked(cut, cb)
			continue
		}
		_ = m.p.cfg.Endpoint.Send(id, encodeCut(cut))
	}
}

// onCutLocked receives the delivery targets and begins repairing toward
// them.
func (m *Member) onCutLocked(msg *msgCut, cb *callbacks) {
	if msg.pid != m.curPID || m.status != statusFlushing {
		return
	}
	m.cutTargets = msg.targets
	m.flushHeard = m.p.cfg.Clock.Now()
	m.drainTowardCutLocked(cb)
}

// drainTowardCutLocked delivers parked old-view messages up to (but never
// beyond) the cut targets, then reports completion if reached. While
// flushing, m.view is still the old view, so the multicast state's slots
// are the old view's members.
func (m *Member) drainTowardCutLocked(cb *callbacks) {
	if m.status != statusFlushing || m.cutTargets == nil {
		return
	}
	for s, sender := range m.ms.members {
		target := m.cutTargets[sender]
		pend := m.ms.pending[s]
		for m.ms.recvNext[s] < target {
			next := m.ms.recvNext[s]
			data, ok := pend[next]
			if !ok {
				break // gap: NAK repair will progress it
			}
			delete(pend, next)
			m.deliverOneLocked(s, next, data, cb)
		}
	}
	m.tryCompleteCutLocked(cb)
}

// tryCompleteCutLocked sends CutDone once every old-view sender's target is
// reached.
func (m *Member) tryCompleteCutLocked(cb *callbacks) {
	if m.status != statusFlushing || m.cutTargets == nil || m.sentCutDone {
		return
	}
	for s, sender := range m.ms.members {
		if m.ms.recvNext[s] < m.cutTargets[sender] {
			return
		}
	}
	m.sentCutDone = true
	done := &msgCutDone{group: m.group, pid: m.curPID}
	if m.curPID.Coord == m.p.id {
		m.onCutDoneLocked(m.p.id, done, cb)
	} else {
		_ = m.p.cfg.Endpoint.Send(m.curPID.Coord, encodeCutDone(done))
	}
}

// onCutDoneLocked collects completions at the coordinator and installs the
// new view when all candidates have reached the cut.
func (m *Member) onCutDoneLocked(from ProcessID, msg *msgCutDone, cb *callbacks) {
	pr := m.prop
	if pr == nil || msg.pid != pr.pid || pr.phase != phaseCut || !pr.has(from) {
		return
	}
	pr.cutDone[from] = true
	for _, id := range pr.candidates {
		if !pr.cutDone[id] {
			return
		}
	}

	maxSeq := m.view.ID.Seq
	for _, info := range pr.syncInfos {
		if info.oldView.Seq > maxSeq {
			maxSeq = info.oldView.Seq
		}
	}
	install := &msgInstall{
		group:   m.group,
		pid:     pr.pid,
		view:    ViewID{Seq: maxSeq + 1, Coord: m.p.id},
		members: pr.candidates,
	}
	pkt := encodeInstall(install)
	for _, id := range pr.candidates {
		if id != m.p.id {
			_ = m.p.cfg.Endpoint.Send(id, pkt)
		}
	}
	m.onInstallLocked(install, cb)
}

// onInstallLocked commits the new view: reset multicast state, notify the
// application, release queued multicasts and replay early messages.
func (m *Member) onInstallLocked(msg *msgInstall, cb *callbacks) {
	if msg.pid != m.curPID || m.status != statusFlushing {
		return
	}
	members := sortedIDs(msg.members)
	in := false
	for _, id := range members {
		if id == m.p.id {
			in = true
			break
		}
	}
	if !in {
		return
	}

	m.view = View{Group: m.group, ID: msg.view, Members: members}
	m.ms = newMcastState(members, m.p.id)
	m.status = statusNormal
	m.p.ctr.viewChanges.Inc()
	m.p.cfg.Obs.Event("gcs.view",
		fmt.Sprintf("%s %s members=%d", m.group, msg.view, len(members)))
	m.cutTargets = nil
	m.sentCutDone = false
	m.flushCandidates = nil
	m.flushOldView = View{}
	m.forceChange = false
	m.divergeCount = nil
	if m.prop != nil {
		if m.prop.timer != nil {
			m.prop.timer.Stop()
		}
		m.prop = nil
	}
	for id := range m.departed {
		if !m.view.Includes(id) {
			delete(m.departed, id)
		}
	}
	for id := range m.foreign {
		if m.view.Includes(id) {
			delete(m.foreign, id)
		}
	}

	m.notifyViewLocked(cb)

	// Replay multicasts that raced ahead of our install.
	if early := m.future[msg.view]; early != nil {
		delete(m.future, msg.view)
		for _, em := range early {
			m.acceptMcastLocked(em, true, cb)
		}
	}
	for vid := range m.future {
		if vid.Seq <= msg.view.Seq {
			delete(m.future, vid)
		}
	}

	// Send what the application queued during the flush.
	queued := m.sendQueue
	m.sendQueue = nil
	for _, data := range queued {
		m.multicastWrappedLocked(data, cb)
	}

	// Conditions may have accumulated during the flush (new suspicions,
	// new joiners); the coordinator checks again.
	if m.isActingCoordinatorLocked() && m.changeNeededLocked() {
		m.scheduleProposalLocked()
	}
}

// flushTickLocked runs on the retransmission period while flushing: it
// NAK-repairs toward the cut and escalates if the coordinator went silent.
func (m *Member) flushTickLocked(cb *callbacks) {
	if m.cutTargets != nil {
		m.drainTowardCutLocked(cb)
		for s, sender := range m.ms.members {
			lo := m.ms.recvNext[s]
			hi := m.cutTargets[sender]
			if lo >= hi {
				continue
			}
			nak := encodeNak(&msgNak{group: m.group, view: m.flushOldView.ID, sender: sender, from: lo, to: hi})
			for _, id := range m.flushOldView.Members {
				if id != m.p.id && !m.p.fd.isSuspectedLocked(id) {
					m.p.ctr.naksSent.Inc()
					_ = m.p.cfg.Endpoint.Send(id, nak)
				}
			}
		}
	}
	// Watchdog: if the flush stalls and its coordinator is gone, the next
	// candidate in line takes over. And as a last resort — the INSTALL
	// message travels unreliably exactly once, so a member that missed it
	// is stranded with a live, already-moved-on coordinator — ANY member
	// stuck long enough starts its own superseding proposal, which drags
	// the whole group (whatever views its members reached) into a fresh
	// common view.
	stallFor := m.p.cfg.Clock.Now().Sub(m.flushHeard)
	switch {
	case stallFor > 3*m.p.cfg.ProposalTimeout && m.isActingCoordinatorLocked() && m.prop == nil:
		m.startProposalLocked(cb)
	case stallFor > 8*m.p.cfg.ProposalTimeout && m.prop == nil:
		m.flushHeard = m.p.cfg.Clock.Now() // pace the escalation
		m.startProposalLocked(cb)
	}
}
