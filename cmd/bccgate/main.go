// Command bccgate fronts N bccserver backends with a fingerprint-
// affine routing tier (internal/cluster): it speaks the exact same
// HTTP API as a single backend, so clients point at the gateway and
// scale-out becomes an operational detail.
//
//	bccgate -addr :8090 -backends http://10.0.0.1:8080,http://10.0.0.2:8080
//
// Routing: each request's instance is fingerprinted at the edge and
// rendezvous-hashed over the membership, so identical instances always
// land on the backend whose solution cache is already warm; membership
// changes remap only ~1/N of the keys. Unhealthy, draining or
// breaker-open backends are routed around (power-of-two-choices by
// observed load). A solve goes to one backend at a time: the primary,
// then the second-ranked backend once if the primary fails with a
// retryable error. Batches are scattered by per-item affinity and
// gathered back in input order. The X-BCC-Backend response header
// names the backend that answered each request.
//
// Membership is live: SIGHUP re-reads -backends-file (when given) and
// applies the new set without a restart, preserving the health,
// breaker and accounting state of backends present before and after;
// without a file, SIGHUP forces an immediate re-probe of the current
// members. SIGINT/SIGTERM drains gracefully: /v1/healthz flips to 503
// first, then in-flight requests finish.
//
// Async jobs route through the gateway too: a submission is pinned to
// its fingerprint-affine backend, the gateway hands out its own job ID,
// and if the owning backend dies mid-job the next poll transparently
// resubmits the job to a survivor (once) under the same ID — the status
// body reports the move via "resubmitted" and "backend". GET /v1/jobs
// scatter-gathers the listing across all eligible backends.
//
// Endpoints (same shapes as bccserver):
//
//	POST /v1/solve        route one solve by fingerprint affinity
//	POST /v1/solve/batch  scatter-gather by per-item affinity
//	POST /v1/jobs         submit a durable async job to its affine backend
//	GET  /v1/jobs         merged job listing; /v1/jobs/{id}[/result|/cancel] per job
//	GET  /v1/healthz      200 while serving and ≥1 backend is eligible
//	GET  /v1/statz        gateway + per-backend routing counters
//	GET  /metrics         Prometheus text exposition
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/resilience"
)

func main() {
	var (
		addr          = flag.String("addr", ":8090", "listen address")
		backends      = flag.String("backends", "", "comma-separated backend base URLs (required unless -backends-file)")
		backendsFile  = flag.String("backends-file", "", "file with backend URLs (one per line, # comments); SIGHUP re-reads it")
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "backend health probe period")
		maxAttempts   = flag.Int("max-attempts", 1, "client attempts per backend call (cross-backend failover is separate)")
		breakerFails  = flag.Int("breaker-failures", 3, "consecutive failures that open a backend's breaker")
		breakerCool   = flag.Duration("breaker-cooldown", 2*time.Second, "how long an open backend breaker rejects before probing")
		maxBody       = flag.Int64("max-body", 8<<20, "request body size cap in bytes")
		maxBatch      = flag.Int("max-batch", 64, "cap on requests per batch call")
		drain         = flag.Duration("drain", 15*time.Second, "shutdown grace period for in-flight requests")
		version       = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("bccgate", obs.ReadBuild())
		return
	}

	urls, err := initialBackends(*backends, *backendsFile)
	if err != nil {
		log.Fatalf("bccgate: %v", err)
	}

	c, err := cluster.New(cluster.Config{
		Backends:      urls,
		ProbeInterval: *probeInterval,
		MaxAttempts:   *maxAttempts,
		Breaker: &resilience.BreakerConfig{
			ConsecutiveFailures: *breakerFails,
			Cooldown:            *breakerCool,
		},
	})
	if err != nil {
		log.Fatalf("bccgate: %v", err)
	}
	defer c.Close()

	gw := cluster.NewGateway(c, cluster.GatewayConfig{
		MaxBodyBytes: *maxBody,
		MaxBatch:     *maxBatch,
	})

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           gw.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		// The gateway's writes must outlast the slowest admissible backend
		// solve plus a failover; the backends already cap their own work.
		WriteTimeout: 5 * time.Minute,
		IdleTimeout:  2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP: live membership reload (or a forced re-probe without a
	// file). Runs off the signal goroutine; SetBackends swaps atomically
	// under traffic.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if *backendsFile == "" {
				log.Printf("bccgate: SIGHUP with no -backends-file: re-probing current members")
				c.ProbeNow()
				continue
			}
			urls, err := readBackendsFile(*backendsFile)
			if err != nil {
				log.Printf("bccgate: SIGHUP reload failed, keeping current membership: %v", err)
				continue
			}
			if err := c.SetBackends(urls); err != nil {
				log.Printf("bccgate: SIGHUP reload rejected, keeping current membership: %v", err)
				continue
			}
			log.Printf("bccgate: membership reloaded from %s: %s", *backendsFile, strings.Join(c.Backends(), ", "))
		}
	}()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("bccgate: listening on %s fronting %d backends: %s",
		*addr, len(c.Backends()), strings.Join(c.Backends(), ", "))

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("bccgate: %v", err)
		}
	case <-ctx.Done():
		log.Printf("bccgate: signal received, draining for up to %v", *drain)
		// Healthz flips first so an upstream balancer's next probe stops
		// sending traffic while Shutdown finishes accepted requests.
		gw.BeginDrain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("bccgate: shutdown: %v", err)
		}
		log.Printf("bccgate: drained, bye")
	}
}

// initialBackends resolves the startup membership: -backends-file wins
// when both are given (it is also the SIGHUP reload source), else the
// -backends flag.
func initialBackends(flagList, file string) ([]string, error) {
	if file != "" {
		return readBackendsFile(file)
	}
	if flagList == "" {
		return nil, errors.New("either -backends or -backends-file is required")
	}
	return strings.Split(flagList, ","), nil
}

// readBackendsFile parses a membership file: one URL per line, blank
// lines and #-comments ignored.
func readBackendsFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var urls []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		urls = append(urls, line)
	}
	if len(urls) == 0 {
		return nil, fmt.Errorf("%s names no backends", path)
	}
	return urls, nil
}
