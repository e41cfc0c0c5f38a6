package trace

import "fmt"

// Absorb merges a closed part session into this one, remapping the
// part's run generations and scope IDs past this session's allocators so
// (scope, event) keys and (run, thread) timelines never collide. Records
// are re-emitted in the part's own order with fresh sequence numbers, so
// the merged trace stays a total order and the metrics registry is
// rebuilt record-by-record exactly as if the part had been traced into
// this session directly. Interposition totals — counted outside records
// — are transferred explicitly.
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
		for _, r := range c {
			if r.Run != 0 {
				r.Run += runBase
			}
			if r.Scope != 0 {
				r.Scope += scopeBase
			}
			r.Seq = 0 // Emit restamps
			s.Emit(r)
		}
	}
	s.runs += part.runs
	s.scopes += part.scopes
	s.metrics.InterposeCrossings += part.metrics.InterposeCrossings
	s.metrics.InterposeVirtual += part.metrics.InterposeVirtual
	return nil
}
