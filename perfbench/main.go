// Command perfbench is the repository's benchmark: the one command every
// performance claim about the serving plane and the configuration engine
// is measured with. It runs one named workload in one OS process, checks
// the program's outputs against references computed in the same process,
// and prints one JSON result line as the last line of standard output.
//
// Usage (from the root of a checkout; perfbench/run.sh builds and execs it):
//
//	perfbench --workload stream-loopback --seed 1 --seconds 10 --trace 0
//
// Workloads (why each exists is in workloads.go):
//
//	stream-loopback  HTTP streaming over a 127.0.0.1 listener, journal off
//	gateway-journal  in-process gateway with the write-behind journal on,
//	                 then service.Recover and every user's lazy re-seek
//	configure        core.Analyze + Analysis.Deploy at the paper's
//	                 objectives, then the deployment applied to the fleet
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the run is split into an untraced half and a traced half, and the result
// carries the per-layer metrics (spans are recorded by this package around
// calls into the layers' public functions; the program is not changed).
// The traced half also writes a Chrome trace_event file under
// .bench_build/traces/ that Perfetto loads.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// procs is the parallelism every workload is specified at: 2 shards, 2
// connections or producers, GOMAXPROCS 2.
const procs = 2

// hardDeadline bounds a whole run, so a wedged run still tears down and
// exits within 180 s.
const hardDeadline = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// small shrinks every input to a smoke-test size.
	small bool
	// root is the checkout the run reads and writes inside.
	root string
}

// run is main without the exit, so the smoke test can drive it in process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 10, "measured run length in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	fs.BoolVar(&o.small, "small", false, "smoke-test input sizes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[o.workload]
	switch {
	case !ok:
		sayf(stderr, "perfbench: unknown workload %q (have %s)\n", o.workload, workloadNames())
		return 2
	case o.seconds < 1:
		sayf(stderr, "perfbench: --seconds must be >= 1, got %d\n", o.seconds)
		return 2
	case traceFlag != 0 && traceFlag != 1:
		sayf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	o.trace = traceFlag == 1
	root, err := os.Getwd()
	if err != nil {
		sayf(stderr, "perfbench: %v\n", err)
		return 1
	}
	o.root = root
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, hardDeadline)
	defer cancel()

	b, err := newBench(o)
	if err != nil {
		sayf(stderr, "perfbench: %v\n", err)
		return 1
	}
	werr := wl(ctx, b)
	// Every stack the workload built is torn down, in order, before the
	// temp directories go — on success, error, timeout and signal alike.
	cerr := b.teardown()
	if err := errors.Join(werr, cerr); err != nil {
		if ctx.Err() != nil {
			err = errors.Join(err, context.Cause(ctx))
		}
		sayf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res, info := b.result()
	if err := writeJSONLine(stdout, map[string]any{"perfbench": info}); err != nil {
		sayf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := writeJSONLine(stdout, res); err != nil {
		sayf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		sayf(stderr, "perfbench: correctness gate failed: %d of %d operations failed or mismatched\n", res.Failed, res.Attempted)
		for _, m := range b.mismatches {
			sayf(stderr, "   %s\n", m)
		}
		return 1
	}
	return 0
}

// sayf writes a diagnostic line to standard error.
func sayf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...) //lppm:allow droppederr -- diagnostics on stderr; a failed write has nowhere else to go
}

func writeJSONLine(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}
