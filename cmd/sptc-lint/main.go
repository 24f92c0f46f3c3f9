// Command sptc-lint is Sparta's in-tree static-analysis gate: nine
// repo-specific analyzers over the whole module plus a compiler-diagnostic
// performance tier, built on nothing but go/parser + go/types so it runs
// offline with a bare toolchain (no golang.org/x/tools, no network, no
// module downloads).
//
//	go run ./cmd/sptc-lint ./...        # the whole module (what make verify runs)
//	go run ./cmd/sptc-lint ./internal/hashtab ./internal/core
//	go run ./cmd/sptc-lint -list        # describe the analyzers
//	go run ./cmd/sptc-lint -perf            # diff hot-path escapes/bounds checks vs lint/hotpath_budget.json
//	go run ./cmd/sptc-lint -perf-baseline   # re-stamp the budget (make perf-baseline)
//
// Analyzers:
//
//	atomicmix   struct fields accessed both via sync/atomic and plainly
//	chunkloop   hand-rolled goroutine fan-out / nnz-over-threads chunk math
//	lnoverflow  unguarded uint64 dimension-product multiplies
//	hotpanic    panic reachable from the contraction hot path
//	bareerr     dropped error results
//	spanleak    Tracer.Start* spans that are never End()ed
//	ctxloop     exported ForChunked* callers that drop context.Context
//	deferinloop defer inside a loop in a hot-path package
//	atomicalign 64-bit atomics on struct fields misaligned for 32-bit
//
// The -perf tier runs the compiler itself (go build -gcflags '-m -m' and
// -d=ssa/check_bce/debug=1) over the hot-path packages, attributes every
// heap escape and bounds check to its enclosing function, and diffs the
// counts against the committed budget in lint/hotpath_budget.json. Any
// count above budget fails; make perf-baseline re-stamps the file after a
// deliberate change.
//
// A finding is suppressed by a comment on its line or the line above:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory and the analyzer name must exist; malformed
// directives are themselves diagnostics. Test files are outside the lint
// scope (the gate covers shipped code; tests exercise intentional
// violations).
//
// Exit status: 0 when clean, 1 with findings, 2 on usage or load errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
)

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	perf := flag.Bool("perf", false, "diff compiler escape/bounds-check diagnostics against lint/hotpath_budget.json")
	perfBaseline := flag.Bool("perf-baseline", false, "re-stamp lint/hotpath_budget.json from the current diagnostics")
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-11s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *perf || *perfBaseline {
		if err := perfMain(*perfBaseline); err != nil {
			if errors.Is(err, errBudgetExceeded) {
				os.Exit(1)
			}
			fmt.Fprintln(os.Stderr, "sptc-lint:", err)
			os.Exit(2)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		fmt.Fprintln(os.Stderr, "usage: sptc-lint [-list] [-perf] [-perf-baseline] <packages>   (e.g. sptc-lint ./...)")
		os.Exit(2)
	}

	diags, err := lint(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sptc-lint:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "sptc-lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// lint loads the packages named by patterns and runs the analyzer suite.
func lint(patterns []string) ([]Diagnostic, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	modRoot, modPath, err := findModule(wd)
	if err != nil {
		return nil, err
	}
	l := newLoader(modRoot, modPath)
	paths, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no packages match %v", patterns)
	}
	var pkgs []*Package
	for _, path := range paths {
		p, err := l.load(path)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", path, err)
		}
		pkgs = append(pkgs, p)
	}
	return runSuite(pkgs), nil
}
