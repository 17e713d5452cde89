// Command biaslabd serves the measurement lab over HTTP: clients submit
// jobs (run, sweep-env, sweep-link, randomize, experiment), a bounded
// worker pool executes them over the shared measurement core, and results
// land in a persistent content-addressed store, so an identical request —
// from any client, before or after a restart — is a cache hit that
// performs zero new measurements.
//
// Usage:
//
//	biaslabd [-addr :8347] [-data DIR] [-workers N]
//	biaslabd -join http://coordinator:8347 [-advertise URL] [-worker-id ID]
//	biaslabd -selfcheck [-size test|small|ref]
//
// Every daemon is a cluster coordinator: shardable jobs submitted to it
// are fanned out across any workers that have joined, and run locally
// when none have. With -join the daemon additionally runs as a cluster
// worker: it registers with the named coordinator, heartbeats to renew
// its shard leases, and executes assigned shards through its own
// measurement caches, while still serving its ordinary local API.
//
// SIGINT/SIGTERM drain gracefully: in-flight sweeps checkpoint every
// completed point into fsynced per-job journals, so a restarted daemon
// resumes an interrupted job from where it stopped when the job is
// resubmitted. A draining worker answers 503 on /readyz (while /healthz
// stays 200), so the coordinator stops assigning it shards before its
// executors stop.
//
// -selfcheck is the deploy smoke test: it boots an ephemeral daemon,
// pushes one tiny job through the full HTTP path twice (miss, then cache
// hit), cross-checks the queue-depth/utilization/cache counters against
// the /metrics endpoint, and exits nonzero on any mismatch.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"biaslab/internal/audit"
	"biaslab/internal/cluster"
	"biaslab/internal/retry"
	"biaslab/internal/server"
)

func main() {
	addr := flag.String("addr", ":8347", "listen address")
	dataDir := flag.String("data", "biaslabd-data", "data directory (result store + job journals)")
	workers := flag.Int("workers", 2, "concurrent job executions")
	join := flag.String("join", "", "coordinator URL to join as a cluster worker (e.g. http://host:8347)")
	workerID := flag.String("worker-id", "", "cluster worker identity (default hostname-pid)")
	advertise := flag.String("advertise", "", "base URL other daemons can reach this one at (readiness probes)")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "cluster shard lease TTL")
	heartbeat := flag.Duration("heartbeat", 0, "cluster heartbeat interval (default lease-ttl/4)")
	selfcheck := flag.Bool("selfcheck", false, "run the end-to-end smoke test and exit")
	sizeName := flag.String("size", "test", "workload size for -selfcheck: test, small, ref")
	flag.Parse()

	if *selfcheck {
		if err := runSelfcheck(*sizeName); err != nil {
			fmt.Fprintln(os.Stderr, "biaslabd: selfcheck FAILED:", err)
			os.Exit(1)
		}
		fmt.Println("biaslabd: selfcheck ok")
		return
	}

	opts := serveOptions{
		addr:      *addr,
		dataDir:   *dataDir,
		workers:   *workers,
		join:      *join,
		workerID:  *workerID,
		advertise: *advertise,
		leaseTTL:  *leaseTTL,
		heartbeat: *heartbeat,
	}
	if err := serve(opts); err != nil {
		fmt.Fprintln(os.Stderr, "biaslabd:", err)
		os.Exit(1)
	}
}

type serveOptions struct {
	addr, dataDir       string
	workers             int
	join, workerID      string
	advertise           string
	leaseTTL, heartbeat time.Duration
}

// defaultWorkerID is hostname-pid: stable across heartbeats, unique
// across daemons sharing a host.
func defaultWorkerID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// newHTTPServer serves h on addr. Every request's context ends as soon as
// Shutdown begins, so a drain never waits out a held cluster heartbeat or
// an open event stream.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	base, end := context.WithCancel(context.Background())
	s := &http.Server{Addr: addr, Handler: h, BaseContext: func(net.Listener) context.Context { return base }}
	s.RegisterOnShutdown(end)
	return s
}

func serve(opts serveOptions) error {
	srv, err := server.New(server.Config{DataDir: opts.dataDir, Workers: opts.workers})
	if err != nil {
		return err
	}

	// Every daemon coordinates: shardable jobs it receives go to whatever
	// fleet has joined it, and degrade to local execution when none has.
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
		LeaseTTL:   opts.leaseTTL,
		Heartbeat:  opts.heartbeat,
		Runner:     srv.Runner,
		ProbeReady: cluster.ProbeReadyHTTP(&http.Client{Timeout: 5 * time.Second}),
	})
	srv.SetCluster(coord, func() string { return coord.MetricsSnapshot().Render() })
	// Every submission is audited for benchmarking crimes (findings ride
	// the submit response; ?strict=1 rejects). The auditor plans through
	// the daemon's shared Runner, so its compile/link work is cached.
	srv.SetAuditor(audit.New(srv.Runner))
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	coord.Register(mux)
	httpSrv := newHTTPServer(opts.addr, mux)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "biaslabd: serving on %s (data %s, %d workers)\n", opts.addr, opts.dataDir, opts.workers)
		errCh <- httpSrv.ListenAndServe()
	}()

	// With -join the daemon is additionally a worker of another
	// coordinator: the cluster loop executes assigned shards through this
	// daemon's shared Runner (and so its compile/link caches).
	workerDone := make(chan error, 1)
	if opts.join != "" {
		id := opts.workerID
		if id == "" {
			id = defaultWorkerID()
		}
		w := cluster.NewWorker(cluster.WorkerConfig{
			ID:        id,
			Addr:      opts.advertise,
			Slots:     opts.workers,
			Runner:    srv.Runner,
			Transport: cluster.Dial(opts.join, &http.Client{Timeout: 30 * time.Second}, retry.Policy{}),
		})
		go func() {
			fmt.Fprintf(os.Stderr, "biaslabd: joining cluster at %s as %s\n", opts.join, id)
			workerDone <- w.Run(ctx)
		}()
	} else {
		close(workerDone)
	}

	select {
	case err := <-errCh:
		srv.Shutdown(context.Background())
		return err
	case <-ctx.Done():
	}

	// Graceful drain: leave the cluster first (the worker loop sends a
	// leave on context cancellation, releasing shard leases immediately),
	// then stop accepting connections, then stop the engine. Sweeps
	// abandon their current point at the next watchdog poll; every
	// completed point is already fsynced in its job journal.
	fmt.Fprintln(os.Stderr, "biaslabd: draining (signal received)")
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	select {
	case <-workerDone:
	case <-drainCtx.Done():
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "biaslabd: http shutdown:", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(os.Stderr, "biaslabd: drained")
	return nil
}
