package browser

import (
	"fmt"
	"sort"

	"jskernel/internal/sim"
)

// This file implements SharedArrayBuffer and IndexedDB, the remaining
// feature surface the paper's attacks and CVE models need.

// SharedBuffer models a SharedArrayBuffer (or a transferable ArrayBuffer):
// a chunk of memory reachable from multiple threads. All script access
// goes through SharedBufferRead/Write bindings so a kernel can interpose
// on every access, as §III-E2 of the paper requires.
type SharedBuffer struct {
	ID    int64
	slots []int64
	owner *Thread // current owning thread for transferables
	freed bool
}

// Len returns the number of slots.
func (s *SharedBuffer) Len() int { return len(s.slots) }

// Freed reports whether the buffer's backing store was released.
func (s *SharedBuffer) Freed() bool { return s.freed }

// NewSharedBuffer allocates an n-slot shared buffer owned by this scope's
// thread.
func (g *Global) NewSharedBuffer(n int) *SharedBuffer {
	b := g.browser
	b.nextBuffer++
	return &SharedBuffer{ID: b.nextBuffer, slots: make([]int64, n), owner: g.thread}
}

// sharedBufferOpCost is the per-access cost of typed-array style access.
const sharedBufferOpCost = 40 * sim.Nanosecond

func (g *Global) nativeSharedBufferRead(buf *SharedBuffer, idx int) (int64, error) {
	if err := g.checkBufferAccess(buf, idx, "read"); err != nil {
		return 0, err
	}
	g.thread.advance(sharedBufferOpCost)
	return buf.slots[idx], nil
}

func (g *Global) nativeSharedBufferWrite(buf *SharedBuffer, idx int, v int64) error {
	if err := g.checkBufferAccess(buf, idx, "write"); err != nil {
		return err
	}
	g.thread.advance(sharedBufferOpCost)
	buf.slots[idx] = v
	return nil
}

// checkBufferAccess validates and traces one buffer access. Access to a
// freed buffer is the UAF the transferable CVEs end in; the vulnerable
// native layer performs it anyway (returning an error to the script but
// tracing the use-after-free for the detector).
func (g *Global) checkBufferAccess(buf *SharedBuffer, idx int, op string) error {
	if buf == nil {
		return fmt.Errorf("browser: %s of nil buffer", op)
	}
	b := g.browser
	detail := op
	if buf.freed {
		detail = op + ":use-after-free"
	} else if buf.owner != nil && buf.owner.terminated {
		// The owning thread died; vulnerable engines free the backing
		// store with the thread (CVE-2014-1488).
		buf.freed = true
		detail = op + ":use-after-free"
	}
	if buf.freed {
		// Hazard witness: the backing store died with its owner thread;
		// this access touches freed memory (CVE-2014-1488).
		b.access(g.thread, "buffer", buf.ID, AccessWrite|AccessGuardian)
	}
	kind := int64(0)
	if op == "write" {
		kind = AccessWrite
	}
	b.access(g.thread, "buffer", buf.ID, kind)
	// Stamp the in-task cursor time: cross-thread race detection needs
	// finer resolution than the task-level simulator clock.
	b.trace(TraceEvent{Kind: TraceSharedBufferOp, ThreadID: g.thread.id, Value: buf.ID, Detail: detail, At: g.thread.Now()})
	if buf.freed {
		return fmt.Errorf("browser: %s of freed buffer %d", op, buf.ID)
	}
	if idx < 0 || idx >= len(buf.slots) {
		return fmt.Errorf("browser: buffer index %d out of range [0,%d)", idx, len(buf.slots))
	}
	return nil
}

// TransferToParent moves a buffer's ownership from a worker scope to the
// parent thread and posts it (worker-side transferable postMessage —
// CVE-2014-1488's setup: main keeps using the buffer after the worker,
// its original owner, is terminated). It routes through the bindings table
// so a kernel can interpose.
func (g *Global) TransferToParent(data any, buf *SharedBuffer) error {
	return g.bindings.TransferToParent(data, buf)
}

func (g *Global) nativeTransferToParent(data any, buf *SharedBuffer) error {
	st := g.worker
	if st == nil {
		return fmt.Errorf("browser: TransferToParent outside a worker scope")
	}
	b := g.browser
	if buf != nil {
		b.trace(TraceEvent{
			Kind: TraceTransferable, ThreadID: g.thread.id,
			WorkerID: st.id, Value: buf.ID, Detail: "to-parent",
		})
		// Vulnerable native behaviour: ownership is recorded against the
		// worker thread even though the parent now holds the reference, so
		// terminating the worker frees memory the parent still uses.
	}
	st.inFlight++
	deliverAt := g.thread.Now() + b.Profile.MessageLatency
	if l := st.parent.postLetter(deliverAt, routeTransfer); l != nil {
		l.msg, l.worker = MessageEvent{Data: data, SourceWorker: st.id, Transfer: buf}, st
	}
	return nil
}

// --- IndexedDB ---

// IDBStore is one named IndexedDB object store.
type IDBStore struct {
	name    string
	origin  string
	g       *Global
	private bool
}

// indexedDB is the browser-wide store map. The vulnerable native layer
// persists private-mode writes exactly like normal ones (CVE-2017-7843).
type indexedDB struct {
	data map[string]map[string]string // store name → key → value
}

func newIndexedDB() *indexedDB {
	return &indexedDB{data: make(map[string]map[string]string)}
}

func (g *Global) nativeIndexedDBOpen(name string) (*IDBStore, error) {
	b := g.browser
	detail := ""
	if b.PrivateMode {
		detail = "private-mode"
	}
	b.trace(TraceEvent{Kind: TraceIndexedDBOpen, ThreadID: g.thread.id, URL: name, Detail: detail})
	if _, ok := b.idb.data[name]; !ok {
		b.idb.data[name] = make(map[string]string)
	}
	g.thread.advance(120 * sim.Microsecond)
	return &IDBStore{name: name, origin: b.Origin, g: g, private: b.PrivateMode}, nil
}

// Put stores a key/value pair. In private mode the write should be
// session-scoped; the vulnerable native layer persists it anyway and
// traces that fact.
func (s *IDBStore) Put(key, value string) error {
	b := s.g.browser
	detail := ""
	if s.private {
		detail = "private-mode"
		// Hazard witness: a private-browsing write landing in persistent
		// state (CVE-2017-7843).
		b.access(s.g.thread, "idb", 0, AccessWrite|AccessGuardian)
	}
	b.access(s.g.thread, "idb", 0, AccessWrite)
	b.trace(TraceEvent{Kind: TraceIndexedDBPut, ThreadID: s.g.thread.id, URL: s.name, Detail: detail})
	s.g.thread.advance(80 * sim.Microsecond)
	b.idb.data[s.name][key] = value
	return nil
}

// Get retrieves a value.
func (s *IDBStore) Get(key string) (string, bool) {
	s.g.thread.advance(60 * sim.Microsecond)
	v, ok := s.g.browser.idb.data[s.name][key]
	return v, ok
}

// PersistedStores lists store names with data, used to verify whether
// private-mode writes leaked into persistent state.
func (b *Browser) PersistedStores() []string {
	out := make([]string, 0, len(b.idb.data))
	for name, kv := range b.idb.data {
		if len(kv) > 0 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
