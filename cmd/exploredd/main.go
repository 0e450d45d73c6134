// Command exploredd serves the model-checking engines over HTTP/JSON: a
// long-running daemon that accepts exploration and sampling jobs against the
// spec registry, streams their progress, caches verdicts content-addressed,
// and keeps warm sched runtimes across jobs.
//
// Usage:
//
//	exploredd [-addr 127.0.0.1:8722] [-queue 64] [-runners 2]
//	          [-rate 0] [-burst 8] [-idle 8]
//
// The daemon prints its listen address on stdout once bound (with -addr
// :0 the kernel picks the port, so scripts scrape the printed address) and
// shuts down cleanly on SIGINT/SIGTERM.
//
// API (see docs/SERVICE.md for the full reference and a walkthrough):
//
//	GET  /specs            registered specs with typed domains + capabilities
//	POST /jobs             submit {spec, params, engine, seed}; 202 + job id
//	GET  /jobs             list jobs in submission order
//	GET  /jobs/{id}        job status, progress counters, terminal result
//	GET  /jobs/{id}/events NDJSON stream: status, progress ticks, result
//	POST /jobs/{id}/cancel cancel a queued or running job
//	GET  /stats            queue depth, cache and session-pool counters
//	GET  /healthz          liveness
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mpcn/internal/service"

	// Register the built-in scenarios.
	_ "mpcn/internal/explore/sessions"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("exploredd", flag.ContinueOnError)
	fs.SetOutput(errw)
	addr := fs.String("addr", "127.0.0.1:8722", "listen address (use :0 for an ephemeral port)")
	queueCap := fs.Int("queue", 64, "job queue capacity (submissions beyond it get 503)")
	runners := fs.Int("runners", 2, "concurrent job runners (each job fans out its own engine workers)")
	rate := fs.Float64("rate", 0, "per-client submissions per second (0 = unlimited)")
	burst := fs.Int("burst", 8, "per-client submission burst")
	idle := fs.Int("idle", 8, "warm sched sessions kept per process count")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(errw, "exploredd: %v\n", err)
		return 1
	}

	srv := service.NewServer(service.ServerConfig{
		QueueCap:        *queueCap,
		Runners:         *runners,
		RatePerSec:      *rate,
		RateBurst:       *burst,
		MaxIdleSessions: *idle,
	})
	defer srv.Close()

	hs := &http.Server{Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(shutdownCtx)
	}()

	fmt.Fprintf(out, "exploredd listening on http://%s\n", ln.Addr())
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(errw, "exploredd: %v\n", err)
		return 1
	}
	return 0
}
