package kernel

import (
	"testing"

	"jskernel/internal/browser"
)

// TestMainKernelIsTheWindows: a frame's kernel shares the main thread
// without being its main kernel, so the worker stubs' traffic (the
// sender chain of a main→worker message's prediction, the global of a
// parked worker message, trace attribution) always goes through the
// window's kernel. Picking the first kernel outside a worker from the
// kernel map returned the frame's about half the time, and a page with
// a frame and a worker then saw different message predictions from run
// to run.
func TestMainKernelIsTheWindows(t *testing.T) {
	b, shared := newPinBrowser(t, nil)
	b.RegisterWorkerScript("w.js", func(*browser.Global) {})
	b.RunScript("main", func(g *browser.Global) {
		if _, err := g.CreateFrame("https://site.example"); err != nil {
			t.Fatalf("create frame: %v", err)
		}
		if _, err := g.NewWorker("w.js"); err != nil {
			t.Fatalf("new worker: %v", err)
		}
	})
	runAll(t, b)
	window := shared.KernelOf(b.Window())
	for i := 0; i < 64; i++ {
		if k := shared.mainKernel(); k != window {
			t.Fatalf("call %d: main kernel guards %p, want the window %p", i, k.g, b.Window())
		}
	}
}
