package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// layerMetrics are the per-layer metrics each workload must report with a
// positive value, as its traced run measures them. Later changes refer to
// these names.
var layerMetrics = map[string][]string{
	"stream-loopback": {
		"latency_p50_ms", "latency_p99_ms",
		"trace.encode_ns_per_rec", "trace.decode_ns_per_rec", "trace.wire_bytes_per_rec",
		"client.send_ns_p50", "client.send_ns_p99", "server.body_wait_s",
		"server.write_ns_p50", "server.write_ns_p99", "server.writes_per_window",
		"obs.scrape_ms_p50", "obs.scrape_ms_p99", "service.records_per_flush",
		"lppm.protect_ns_per_rec", "span.unaccounted_ratio", "load.send_lag_p99_ms",
	},
	"gateway-journal": {
		"latency_p50_ms", "latency_p99_ms",
		"trace.encode_ns_per_rec", "trace.decode_ns_per_rec", "trace.wire_bytes_per_rec",
		"service.ingest_ns_p50", "service.ingest_ns_p99", "service.window_ns_p50",
		"service.window_ns_p99", "service.records_per_flush",
		"journal.write_ns_p50", "journal.write_ns_p99", "journal.fsync_ns_p50",
		"journal.fsync_ns_p99", "journal.fsyncs", "journal.bytes_per_rec",
		"journal.io_busy_ratio", "journal.recover_open_s", "rng.rehydrate_s",
		"rng.restore_us_per_user", "lppm.protect_ns_per_rec",
	},
	"configure": {
		"latency_p50_ms", "latency_p99_ms",
		"trace.encode_ns_per_rec", "trace.decode_ns_per_rec", "trace.wire_bytes_per_rec",
		"core.properties_s", "metrics.prepare_s", "metrics.evaluate_s",
		"lppm.protect_dataset_s", "eval.sweep_s", "model.fit_ms", "core.configure_ms",
		"service.ingest_ns_p50", "service.window_ns_p50", "lppm.protect_ns_per_rec",
	},
}

// benchmarkFile is the part of BENCHMARK.json the tables must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestBenchmarkFileMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, file []struct{ Name, Unit string }, table []metricDef) {
		if len(file) != len(table) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the table %d", kind, len(file), len(table))
			return
		}
		for i, m := range file {
			if m.Name != table[i].name || m.Unit != table[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], the table %s [%s]", kind, i, m.Name, m.Unit, table[i].name, table[i].unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", w.Name)
		}
	}
}

// TestWorkloadsSmoke runs every workload at a tiny size, untraced and
// traced, and checks each returns a correct result carrying every metric
// of its mode with its unit, and leaves no goroutine, listener or temp
// directory behind.
func TestWorkloadsSmoke(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, w := range []string{"stream-loopback", "gateway-journal", "configure"} {
		for _, tr := range []string{"0", "1"} {
			var out, errb bytes.Buffer
			code := run([]string{"--workload", w, "--seed", "7", "--seconds", "1", "--trace", tr, "--small"}, &out, &errb)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s", w, tr, code, errb.String())
			}
			res := lastResult(t, out.String())
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v failed=%d attempted=%d", w, tr, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if tr == "1" {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %s: %d metrics, want %d", w, tr, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w, tr, d.name, m, d.unit)
				}
				if tr == "0" && !(m.Value > 0) {
					t.Errorf("%s: end-to-end %s = %v, want > 0", w, d.name, m.Value)
				}
			}
			if tr == "1" {
				for _, name := range layerMetrics[w] {
					if v := res.Metrics[name].Value; !(v > 0) {
						t.Errorf("%s: per-layer %s = %v, want > 0", w, name, v)
					}
				}
				if _, err := os.Stat(filepath.Join(".bench_build", "traces", w+"-seed7.chrome.json")); err != nil {
					t.Errorf("%s: no Chrome trace: %v", w, err)
				}
			}
		}
	}
	assertClean(t)
}

// TestInterruptTearsDown interrupts runs with SIGINT and checks each exits
// non-zero without a result and without leaving anything behind.
func TestInterruptTearsDown(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, w := range []string{"stream-loopback", "gateway-journal"} {
		var out, errb bytes.Buffer
		done := make(chan int, 1)
		go func() {
			done <- run([]string{"--workload", w, "--seed", "3", "--seconds", "20", "--small"}, &out, &errb)
		}()
		time.Sleep(700 * time.Millisecond)
		if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
			t.Fatal(err)
		}
		select {
		case code := <-done:
			if code == 0 || strings.Contains(out.String(), `"correct"`) {
				t.Errorf("%s: interrupted run exited %d with output %q", w, code, out.String())
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("%s: interrupted run did not return", w)
		}
	}
	assertClean(t)
}

func assertClean(t *testing.T) {
	t.Helper()
	if leaks := leakcheck.Check(5 * time.Second); len(leaks) > 0 {
		t.Errorf("goroutines left in module code:\n%s", strings.Join(leaks, "\n\n"))
	}
	ents, err := os.ReadDir(filepath.Join(".bench_build", "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("temp dir left behind: %s", e.Name())
	}
}

func lastResult(t *testing.T, out string) contractResult {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res contractResult
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}
