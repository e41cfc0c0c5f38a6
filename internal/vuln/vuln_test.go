package vuln

import (
	"testing"

	"jskernel/internal/browser"
	"jskernel/internal/sim"
)

func TestAllListsTwelveStableOrder(t *testing.T) {
	a, b := All(), All()
	if len(a) != 12 {
		t.Fatalf("len(All()) = %d, want 12", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("All() order not stable")
		}
	}
}

func TestDescriptionsExist(t *testing.T) {
	for _, c := range All() {
		if Description(c) == "unknown vulnerability" {
			t.Errorf("no description for %s", c)
		}
	}
	if Description(CVE("CVE-0000-0000")) != "unknown vulnerability" {
		t.Error("unknown CVE should say so")
	}
}

func TestCVE20185092OrphanedAbort(t *testing.T) {
	r := NewRegistry()
	r.Trace(browser.TraceEvent{Kind: browser.TraceWorkerTerminated, WorkerID: 1, Detail: "pending-fetch"})
	if r.Exploited(CVE20185092) {
		t.Fatal("termination alone should not trigger")
	}
	r.Trace(browser.TraceEvent{Kind: browser.TraceFetchAbort, Detail: "orphaned"})
	if !r.Exploited(CVE20185092) {
		t.Fatal("orphaned abort should trigger CVE-2018-5092")
	}
}

func TestCVE20185092CleanAbortDoesNotTrigger(t *testing.T) {
	r := NewRegistry()
	r.Trace(browser.TraceEvent{Kind: browser.TraceFetchAbort, Detail: ""})
	r.Trace(browser.TraceEvent{Kind: browser.TraceFetchAbort, Detail: "late"})
	if r.Exploited(CVE20185092) {
		t.Fatal("clean abort should not trigger")
	}
}

func TestCVE20177843PrivateModePut(t *testing.T) {
	r := NewRegistry()
	r.Trace(browser.TraceEvent{Kind: browser.TraceIndexedDBPut, Detail: ""})
	if r.Exploited(CVE20177843) {
		t.Fatal("normal-mode put should not trigger")
	}
	r.Trace(browser.TraceEvent{Kind: browser.TraceIndexedDBPut, Detail: "private-mode"})
	if !r.Exploited(CVE20177843) {
		t.Fatal("private-mode put should trigger")
	}
}

func TestLeakCVEs(t *testing.T) {
	r := NewRegistry()
	r.Trace(browser.TraceEvent{Kind: browser.TraceNavigationError, Detail: "leaky-error"})
	r.Trace(browser.TraceEvent{Kind: browser.TraceNavigationError, Detail: "location-leak"})
	r.Trace(browser.TraceEvent{Kind: browser.TraceWorkerError, Detail: "cross-origin-create"})
	r.Trace(browser.TraceEvent{Kind: browser.TraceXHR, Detail: "cross-origin-worker"})
	for _, c := range []CVE{CVE20157215, CVE20111190, CVE20141487, CVE20131714} {
		if !r.Exploited(c) {
			t.Errorf("%s not detected", c)
		}
	}
}

func TestWorkerLifecycleCVEs(t *testing.T) {
	r := NewRegistry()
	r.Trace(browser.TraceEvent{Kind: browser.TraceWorkerTerminated, Detail: "pending-messages"})
	r.Trace(browser.TraceEvent{Kind: browser.TraceOnMessageSet, Detail: "null-deref"})
	r.Trace(browser.TraceEvent{Kind: browser.TraceMessageDelivered, Detail: "after-teardown"})
	r.Trace(browser.TraceEvent{Kind: browser.TraceMessageDelivered, Detail: "released-use"})
	for _, c := range []CVE{CVE20141719, CVE20135602, CVE20104576, CVE20136646} {
		if !r.Exploited(c) {
			t.Errorf("%s not detected", c)
		}
	}
}

func TestCVE20141488TransferableUAF(t *testing.T) {
	r := NewRegistry()
	// UAF on a buffer that was never transferred: not this CVE.
	r.Trace(browser.TraceEvent{Kind: browser.TraceSharedBufferOp, Value: 7, Detail: "read:use-after-free"})
	if r.Exploited(CVE20141488) {
		t.Fatal("non-transferred UAF should not trigger")
	}
	r.Trace(browser.TraceEvent{Kind: browser.TraceTransferable, Value: 9, Detail: "to-parent"})
	r.Trace(browser.TraceEvent{Kind: browser.TraceSharedBufferOp, Value: 9, Detail: "read:use-after-free"})
	if !r.Exploited(CVE20141488) {
		t.Fatal("transferred-buffer UAF should trigger")
	}
}

func TestCVE20143194Race(t *testing.T) {
	r := NewRegistry()
	// Same thread: no race.
	r.Trace(browser.TraceEvent{Kind: browser.TraceSharedBufferOp, ThreadID: 1, Value: 3, At: 0, Detail: "write"})
	r.Trace(browser.TraceEvent{Kind: browser.TraceSharedBufferOp, ThreadID: 1, Value: 3, At: 10, Detail: "write"})
	if r.Exploited(CVE20143194) {
		t.Fatal("same-thread accesses are not a race")
	}
	// Different threads, read-read: no race.
	r.Trace(browser.TraceEvent{Kind: browser.TraceSharedBufferOp, ThreadID: 2, Value: 3, At: 20, Detail: "read"})
	r = NewRegistry()
	r.Trace(browser.TraceEvent{Kind: browser.TraceSharedBufferOp, ThreadID: 1, Value: 3, At: 0, Detail: "read"})
	r.Trace(browser.TraceEvent{Kind: browser.TraceSharedBufferOp, ThreadID: 2, Value: 3, At: 10, Detail: "read"})
	if r.Exploited(CVE20143194) {
		t.Fatal("read-read is not a race")
	}
	// Different threads, overlapping, one write: race.
	r.Trace(browser.TraceEvent{Kind: browser.TraceSharedBufferOp, ThreadID: 1, Value: 3, At: 20, Detail: "write"})
	if !r.Exploited(CVE20143194) {
		t.Fatal("write overlapping cross-thread read should race")
	}
}

func TestCVE20143194FarApartNoRace(t *testing.T) {
	r := NewRegistry()
	r.Trace(browser.TraceEvent{Kind: browser.TraceSharedBufferOp, ThreadID: 1, Value: 3, At: 0, Detail: "write"})
	r.Trace(browser.TraceEvent{Kind: browser.TraceSharedBufferOp, ThreadID: 2, Value: 3, At: sim.Time(raceWindow) * 10, Detail: "write"})
	if r.Exploited(CVE20143194) {
		t.Fatal("well-separated accesses should not race")
	}
}

func TestArmedSubset(t *testing.T) {
	r := NewRegistry(CVE20177843)
	r.Trace(browser.TraceEvent{Kind: browser.TraceXHR, Detail: "cross-origin-worker"})
	if r.Exploited(CVE20131714) {
		t.Fatal("unarmed CVE should not be marked")
	}
	r.Trace(browser.TraceEvent{Kind: browser.TraceIndexedDBPut, Detail: "private-mode"})
	if !r.Exploited(CVE20177843) {
		t.Fatal("armed CVE should be marked")
	}
}
