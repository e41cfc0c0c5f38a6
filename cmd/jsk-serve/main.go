// Command jsk-serve runs the kernel as a service: an HTTP daemon that
// evaluates Table I cells — (attack, defense, seed) coordinates — on a
// bounded pool of workers; each request builds its kernel environments
// fresh.
//
// Usage:
//
//	jsk-serve                         # serve on 127.0.0.1:8571
//	jsk-serve -addr :9000 -pool 8     # wider pool on another port
//	jsk-serve -telemetry              # + live observability plane
//
// Endpoints: POST /v1/eval, GET /healthz, /readyz, /statsz, /versionz
// and /metricsz (OpenMetrics: the service counters, plus the plane's
// kernel, span, event and ledger families with -telemetry). With
// -telemetry also /v1/events (SSE stream of spans, forensic verdicts
// and campaign findings) and /ledgerz (the cross-request forensics
// ledger). A request:
//
//	curl -s localhost:8571/v1/eval -d '{"attack":"loopscan","defense":"jskernel-chrome","seed":42}'
//
// Overload sheds explicitly (429 + Retry-After), SIGTERM/SIGINT drains
// gracefully, and the same body+seed always returns byte-identical
// responses regardless of pool width or request order.
//
// This command contains no goroutines: serving, draining and signal
// handling all live in internal/serve's audited functions.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"jskernel/internal/serve"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "jsk-serve:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("jsk-serve", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:8571", "listen address")
		pool      = fs.Int("pool", 0, "evaluation workers; each request builds its environments fresh (0 = one per CPU)")
		queue     = fs.Int("queue", 0, "admission queue depth before 429s (0 = 4x pool)")
		deadline  = fs.Duration("deadline", 0, "default per-request completion budget (0 = 30s)")
		reps      = fs.Int("reps", 0, "default repetition budget for timing rows (0 = 5)")
		maxReps   = fs.Int("max-reps", 0, "repetition budget cap (0 = 25)")
		drain     = fs.Duration("drain-timeout", 60*time.Second, "graceful drain bound after SIGTERM/SIGINT")
		telemetry = fs.Bool("telemetry", false, "run the live observability plane: mount /v1/events and /ledgerz, add its kernel, span, event and ledger families to /metricsz, and the kernel aggregate to /statsz")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := serve.Config{
		Pool:            *pool,
		QueueDepth:      *queue,
		DefaultDeadline: *deadline,
		DefaultReps:     *reps,
		MaxReps:         *maxReps,
		Telemetry:       *telemetry,
		Log:             w,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(stop)
	return serve.New(cfg).Run(ln, stop, *drain)
}
