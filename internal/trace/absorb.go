package trace

import "fmt"

// Absorb merges a closed part session into this one, remapping the
// part's run generations and scope IDs past this session's allocators so
// (scope, event) keys and (run, thread) timelines never collide. Records
// are re-stamped in the part's own order with fresh sequence numbers and
// handed to this session's sinks (and its buffer, when it retains), so
// the merged trace stays a total order and every sink sees exactly the
// stream the part would have produced had it been traced here. The
// part's finished metrics registry is folded in whole (Metrics.Merge,
// with its scope IDs shifted by the same base), rather than rebuilt
// record by record: a closed part's events have all retired, so it adds
// nothing to the open-event ledger.
//
// The parallel experiment runner gives every cell its own Session and
// absorbs the parts in cell-index order: because each part is internally
// deterministic and the merge order is fixed by index, the merged trace
// is byte-identical regardless of how many workers executed the cells,
// or in which real-time order they finished.
//
// The part must be Closed (all its events retired) and this session must
// not be; absorbing a session into itself is an error. The part is not
// modified.
func (s *Session) Absorb(part *Session) error {
	if s == nil {
		return fmt.Errorf("trace: absorb into nil session")
	}
	if part == nil {
		return nil
	}
	if part == s {
		return fmt.Errorf("trace: session cannot absorb itself")
	}
	if s.closed {
		return fmt.Errorf("trace: absorb into closed session")
	}
	if !part.closed {
		return fmt.Errorf("trace: absorb of unclosed part (%d events still open)", part.Open())
	}
	if n := part.retained(); part.seq != uint64(n) {
		return fmt.Errorf("trace: absorb of retain-off part (%d of %d records retained)", n, part.seq)
	}
	runBase, scopeBase := s.runs, s.scopes
	for _, c := range part.chunks {
		for i := range c {
			r := c[i]
			if r.Run != 0 {
				r.Run += runBase
			}
			if r.Scope != 0 {
				r.Scope += scopeBase
			}
			s.emit(&r)
		}
	}
	s.runs += part.runs
	s.scopes += part.scopes
	if part.maxVT > s.maxVT {
		s.maxVT = part.maxVT
	}
	for scope, lc := range part.scopeLC.m {
		if p := s.scopeLC.slot(scope + scopeBase); *lc > *p {
			*p = *lc
		}
	}
	s.metrics.merge(part.metrics, scopeBase)
	return nil
}
