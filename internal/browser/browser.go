package browser

import (
	"fmt"

	"jskernel/internal/dom"
	"jskernel/internal/sim"
	"jskernel/internal/webnet"
)

// Script is website JavaScript: a Go closure run against a global object.
// The paper's user-space JS maps onto these closures; everything they can
// observe or schedule goes through the *Global's bindings table, which is
// the interposition seam defenses rewrite.
type Script func(g *Global)

// Options configures a Browser.
type Options struct {
	Profile     Profile
	Net         *webnet.Net
	PrivateMode bool
	Tracer      Tracer
	// ObsEvents enables the observability trace kinds (timer-fired,
	// clock-read, message-callback, frame-tick, load-done) emitted from
	// the public binding delegates. Off by default: each site then costs
	// exactly one boolean check, and emission itself never perturbs
	// simulated time, so runs are identical either way.
	ObsEvents bool
	// InstallScope, when set, is invoked for every newly created global
	// (main window and each worker scope) before user code runs. Defenses
	// use it to interpose on the bindings table; it corresponds to the
	// paper's kernel bootstrap that "injects the kernel into every new
	// JavaScript context".
	InstallScope func(g *Global)
}

// Browser is one simulated browser instance: a main thread, any worker
// threads, shared profile/network/history state, and the feature registries
// the attacks exercise.
type Browser struct {
	Sim     *sim.Simulator
	Net     *webnet.Net
	Profile Profile

	Origin      string // origin of the loaded page
	PrivateMode bool

	visited      map[string]bool // link history for sniffing attacks
	tracer       Tracer
	obsEvents    bool
	tornDown     bool
	installScope func(g *Global)
	// obsFree heads the free list of released timer and animation-frame
	// observability wrappers (obs.go); it stays nil with obs events off.
	obsFree *obsTimer
	// nextScopeToken allocates the per-global observability token; the
	// main window always takes token 1 (New creates it first).
	nextScopeToken int64

	threads    []*Thread
	main       *Thread
	nextThread int
	nextWorker int
	nextFrame  int
	nextFetch  int64
	nextBuffer int64

	workerScripts map[string]Script
	redirects     map[string]string // worker src → final (possibly cross-origin) URL
	idb           *indexedDB
	fetches       map[FetchID]*fetchRecord
	faults        *FaultHooks
}

// FaultHooks are optional fault-injection callbacks the native layer
// consults at specific degradation points. All fields are nil-safe; the
// deterministic implementations live in internal/fault. Hooks must be
// pure functions of seeded injector state so runs stay reproducible.
type FaultHooks struct {
	// WorkerDelivery is consulted as a parent→worker message is delivered;
	// returning true crashes the worker thread mid-message (the delivery is
	// lost and the thread dies without any terminate bookkeeping).
	WorkerDelivery func(workerID int) bool
	// FetchDone is consulted as a fetch response is about to complete;
	// returning true aborts the request at the last instant — the abort
	// race where a response event is registered but never delivered.
	FetchDone func(url string) bool
}

// SetFaultHooks installs (or, with nil, removes) the native layer's fault
// hooks.
func (b *Browser) SetFaultHooks(h *FaultHooks) { b.faults = h }

// SetRedirect records that a worker source is served via an HTTP redirect
// to finalURL, the precondition for the worker-location disclosure of
// CVE-2011-1190.
func (b *Browser) SetRedirect(src, finalURL string) {
	if b.redirects == nil {
		b.redirects = make(map[string]string)
	}
	b.redirects[src] = finalURL
}

// RedirectTarget returns the redirect destination for a worker source, if
// one was configured.
func (b *Browser) RedirectTarget(src string) (string, bool) {
	final, ok := b.redirects[src]
	return final, ok
}

// New creates a browser on the given simulator. A nil Net gets the default
// network model; the zero Profile defaults to Chrome.
func New(s *sim.Simulator, opts Options) *Browser {
	if opts.Profile.Name == "" {
		opts.Profile = ChromeProfile()
	}
	if opts.Net == nil {
		opts.Net = webnet.New(webnet.DefaultConfig(), s.Rand())
	}
	b := &Browser{
		Sim:           s,
		Net:           opts.Net,
		Profile:       opts.Profile,
		PrivateMode:   opts.PrivateMode,
		visited:       make(map[string]bool),
		tracer:        opts.Tracer,
		obsEvents:     opts.ObsEvents,
		installScope:  opts.InstallScope,
		workerScripts: make(map[string]Script),
		idb:           newIndexedDB(),
	}
	b.main = b.newThread("main", nil)
	return b
}

// AddTracer attaches an additional native-layer tracer.
func (b *Browser) AddTracer(t Tracer) {
	if t == nil {
		return
	}
	switch cur := b.tracer.(type) {
	case nil:
		b.tracer = t
	case multiTracer:
		b.tracer = append(cur, t)
	default:
		b.tracer = multiTracer{cur, t}
	}
}

// Main returns the browser's main thread.
func (b *Browser) Main() *Thread { return b.main }

// Threads returns all live threads (main first).
func (b *Browser) Threads() []*Thread {
	out := make([]*Thread, 0, len(b.threads))
	for _, t := range b.threads {
		if !t.terminated {
			out = append(out, t)
		}
	}
	return out
}

// Window returns the main thread's global object.
func (b *Browser) Window() *Global { return b.main.Global() }

// RegisterWorkerScript registers the body of a worker source file, so user
// code can `new Worker(name)`.
func (b *Browser) RegisterWorkerScript(name string, script Script) {
	b.workerScripts[name] = script
}

// MarkVisited records a URL in the browser's history (the secret the
// history-sniffing attack steals).
func (b *Browser) MarkVisited(url string) { b.visited[url] = true }

// Visited reports whether a URL is in the history.
func (b *Browser) Visited(url string) bool { return b.visited[url] }

// RunScript schedules user code on the main thread at the current virtual
// time and is the usual entry point for a page's inline script. The name
// labels the script for readers of the calling code; the event loop does
// not record it.
func (b *Browser) RunScript(name string, script Script) {
	b.main.PostTask(b.Sim.Now(), func(g *Global) { script(g) })
}

// Run drives the simulation until no work remains.
func (b *Browser) Run() error { return b.Sim.Run() }

// RunFor drives the simulation for a span of virtual time.
func (b *Browser) RunFor(d sim.Duration) error { return b.Sim.RunUntil(b.Sim.Now() + d) }

// TearDownDocument simulates navigating away: the document is destroyed
// while workers may still be running (CVE-2010-4576's precondition).
func (b *Browser) TearDownDocument() {
	b.tornDown = true
	b.access(b.main, "doc", 0, AccessWrite)
	b.trace(TraceEvent{Kind: TraceDocumentTeardown, ThreadID: b.main.ID()})
}

// DocumentTornDown reports whether TearDownDocument was called.
func (b *Browser) DocumentTornDown() bool { return b.tornDown }

// newThread creates a thread and its global scope, applying the defense's
// scope installer. A nil worker makes the main thread; otherwise the
// scope is that worker's self, bound before the installer runs so the
// installer sees a worker scope.
func (b *Browser) newThread(name string, worker *workerState) *Thread {
	b.nextThread++
	t := &Thread{
		b:        b,
		id:       b.nextThread,
		name:     name,
		isMain:   worker == nil,
		loopName: "loop:" + name,
	}
	t.dispatch = t.dispatchOne
	g := &Global{browser: b, thread: t, worker: worker}
	b.nextScopeToken++
	g.token = b.nextScopeToken
	if worker == nil {
		g.document = dom.NewDocument()
	} else {
		worker.thread = t
	}
	g.bindings = nativeBindings(g)
	t.global = g
	b.threads = append(b.threads, t)
	if b.installScope != nil {
		b.installScope(g)
	}
	return t
}

// NewScopeOnThread creates an additional global scope bound to an existing
// thread, with fresh native bindings and no document. Chrome Zero's
// polyfill (non-parallel) worker uses it to run worker scripts on the main
// thread. The scope installer is NOT applied — the caller owns the
// bindings.
func (b *Browser) NewScopeOnThread(t *Thread) *Global {
	g := &Global{browser: b, thread: t}
	b.nextScopeToken++
	g.token = b.nextScopeToken
	g.bindings = nativeBindings(g)
	return g
}

// HasWorkerScript reports whether a worker source name is registered.
func (b *Browser) HasWorkerScript(name string) bool {
	_, ok := b.workerScripts[name]
	return ok
}

// WorkerScript returns a registered worker script body.
func (b *Browser) WorkerScript(name string) (Script, error) { return b.workerScript(name) }

// workerScript resolves a registered worker source.
func (b *Browser) workerScript(src string) (Script, error) {
	s, ok := b.workerScripts[src]
	if !ok {
		return nil, fmt.Errorf("browser: unknown worker script %q", src)
	}
	return s, nil
}
