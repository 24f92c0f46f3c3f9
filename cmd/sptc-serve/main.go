// Command sptc-serve is an HTTP contraction service over a store of
// prepared operands: upload tensors, contract them with einsum specs, and
// let the store keep each operand's stage ① — X's sorted rows and Y's HtY —
// so that requests that reuse an operand start at the first HtY probe.
//
//	sptc-serve -addr :8080 -demo
//	curl -X PUT --data-binary @y.tns localhost:8080/tensors/y
//	curl -X POST -d '{"x":"demoA","y":"demoB","spec":"abc,cde->abde"}' \
//	    localhost:8080/contract
//
// Endpoints:
//
//	PUT  /tensors/{name}   upload a FROSTT .tns or binary SPTN body
//	GET  /tensors/{name}   tensor metadata (order, dims, nnz, fingerprint)
//	POST /contract         run one contraction (JSON request, JSON reply)
//	POST /shard/contract   worker-side shard execution (binary SPTN in/out)
//	GET  /healthz          liveness
//	GET  /metrics          Prometheus text (plus /debug/pprof, /debug/vars)
//	GET  /debug/trace      Chrome trace of request span trees (with -trace)
//
// A stored operand keeps one prepared form per role, for the contract modes
// asked for last, and a PUT of its name drops them (DESIGN.md §10): the
// reply's x_prepared and hty_reused say whether a request found them.
//
// Every tensor/contract request carries a request ID (adopted from
// X-Request-ID or generated) that is echoed in the response header, keyed
// into the access log (-access-log: one JSON line per request with
// per-phase walls), and names the request's span tree in the Chrome trace
// (-trace file, or scrape /debug/trace live).
//
// Two gates protect the process (DESIGN.md §10):
//
//   - -max-inflight bounds concurrent contractions; excess requests queue up
//     to -queue-wait, then are shed with 503.
//   - -dram-budget enables hetmem-style admission control: each request's
//     estimated footprint (prepared HtY + Eq.6 accumulator bound + Z_local
//     bound) is planned into the remaining budget with the paper's static
//     placement priority, and requests whose objects would not fit entirely
//     in DRAM are shed with 503 rather than thrashing. 0 disables the gate.
//
// Sharded mode (DESIGN.md §15): -shards lists worker URLs (other sptc-serve
// instances) to scatter every contraction across, gathering a merged output
// that is bitwise identical to the one-shot contraction; a request whose
// shard exhausts its failover attempts is shed with a named reason
// (shed_shards).
//
// -demo preloads two synthetic tensors (demoA, demoB; contractible with
// "abc,cde->abde") so smoke tests need no uploads.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"sparta/internal/obs"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		threads      = flag.Int("threads", 0, "worker threads per contraction (<1 = GOMAXPROCS)")
		dramBudget   = flag.String("dram-budget", "0", "DRAM admission budget in bytes (0 = admission disabled; accepts K/M/G suffixes)")
		maxInflight  = flag.Int("max-inflight", runtime.GOMAXPROCS(0), "max concurrent contractions")
		queueWait    = flag.Duration("queue-wait", 2*time.Second, "max time a request waits for an inflight slot before 503")
		demo         = flag.Bool("demo", false, "preload synthetic tensors demoA and demoB")
		traceFile    = flag.String("trace", "", "record request span trees; write Chrome trace here on shutdown ('' = tracing off)")
		traceLimit   = flag.Int("trace-limit", 1<<20, "max buffered trace events before new spans are dropped (0 = unbounded)")
		accessLog    = flag.String("access-log", "", "structured access log destination: a path, 'stdout', or 'stderr' ('' = off)")
		shardURLs    = flag.String("shards", "", "comma-separated remote worker base URLs for sharded execution ('' = off)")
		shardTimeout = flag.Duration("shard-timeout", 0, "per-shard attempt timeout in sharded mode (0 = request timeout only)")
		shardRetries = flag.Int("shard-retries", 0, "executor attempts per shard including the primary (0 = primary plus one failover)")
	)
	flag.Parse()

	db, err := parseBytes(*dramBudget)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sptc-serve: -dram-budget: %v\n", err)
		os.Exit(2)
	}

	var tracer *obs.Tracer
	if *traceFile != "" {
		tracer = obs.NewTracer()
		tracer.SetLimit(*traceLimit)
	}
	var accessW io.Writer
	var accessF *os.File
	switch *accessLog {
	case "":
	case "stdout", "-":
		accessW = os.Stdout
	case "stderr":
		accessW = os.Stderr
	default:
		accessF, err = os.Create(*accessLog)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sptc-serve: -access-log: %v\n", err)
			os.Exit(2)
		}
		accessW = accessF
	}

	var urls []string
	if *shardURLs != "" {
		for _, u := range strings.Split(*shardURLs, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
	}
	srv := newServer(serverConfig{
		Threads:      *threads,
		DRAMBudget:   db,
		MaxInflight:  *maxInflight,
		QueueWait:    *queueWait,
		Tracer:       tracer,
		AccessLog:    accessW,
		ShardURLs:    urls,
		ShardTimeout: *shardTimeout,
		ShardRetries: *shardRetries,
	})
	if *demo {
		srv.loadDemo()
	}

	log.Printf("sptc-serve listening on %s (inflight=%d, dram-budget=%d)", *addr, *maxInflight, db)
	hs := &http.Server{Addr: *addr, Handler: srv.handler(), ReadHeaderTimeout: 10 * time.Second}

	// Serve until SIGINT/SIGTERM, then drain and flush the trace/log files —
	// the span trees are only worth recording if they survive shutdown.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatalf("sptc-serve: %v", err)
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("sptc-serve: shutdown: %v", err)
	}
	if tracer != nil {
		if err := tracer.WriteFile(*traceFile); err != nil {
			log.Printf("sptc-serve: writing trace: %v", err)
		} else {
			log.Printf("sptc-serve: wrote %d trace events to %s (%d dropped)",
				tracer.Len(), *traceFile, tracer.Dropped())
		}
	}
	if accessF != nil {
		_ = accessF.Close()
	}
}

// parseBytes reads "512", "64K", "1.5M"-style sizes (decimal multipliers;
// Ki/Mi/Gi accepted for the binary ones).
func parseBytes(s string) (uint64, error) {
	var mult float64 = 1
	switch {
	case len(s) == 0:
		return 0, fmt.Errorf("empty size")
	default:
		suffixes := []struct {
			suf string
			m   float64
		}{
			{"Ki", 1 << 10}, {"Mi", 1 << 20}, {"Gi", 1 << 30},
			{"K", 1e3}, {"M", 1e6}, {"G", 1e9},
		}
		for _, sm := range suffixes {
			if len(s) > len(sm.suf) && s[len(s)-len(sm.suf):] == sm.suf {
				mult = sm.m
				s = s[:len(s)-len(sm.suf)]
				break
			}
		}
	}
	var v float64
	if _, err := fmt.Sscanf(s, "%g", &v); err != nil || v < 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return uint64(v * mult), nil
}
