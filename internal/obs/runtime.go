package obs

import "runtime"

// RegisterRuntimeMetrics exports the process's own pressure signals on
// r: goroutine count, heap footprint, GC activity. One collector reads
// runtime.MemStats once per Gather — ReadMemStats stops the world
// briefly, so it runs only when /metrics is scraped, never on the serving
// path, and a process that is never scraped never pays for it.
// Idempotent: registering again replaces the collector.
func RegisterRuntimeMetrics(r *Registry) {
	r.Collect("runtime", func(emit Emit) {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		emit("go_goroutines", "current number of goroutines", nil, KindGauge, float64(runtime.NumGoroutine()))
		emit("go_heap_alloc_bytes", "bytes of allocated heap objects", nil, KindGauge, float64(m.HeapAlloc))
		emit("go_heap_sys_bytes", "bytes of heap memory obtained from the OS", nil, KindGauge, float64(m.HeapSys))
		emit("go_heap_objects", "number of live heap objects", nil, KindGauge, float64(m.HeapObjects))
		emit("go_gc_cycles_total", "completed GC cycles since process start", nil, KindGauge, float64(m.NumGC))
		emit("go_gc_pause_total_ns", "cumulative GC stop-the-world pause nanoseconds", nil, KindGauge, float64(m.PauseTotalNs))
		emit("go_next_gc_bytes", "heap size target for the next GC cycle", nil, KindGauge, float64(m.NextGC))
	})
}
