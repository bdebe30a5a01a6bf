package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded by this package around
// the call (the program itself is not instrumented). Spans of one window
// or one operation share an id. The root of an id is its end-to-end span
// (layer "e2e"); the other spans of that id are the layer calls on its
// blocking path, and the part of the root no layer span covers is the
// root's self time — the time this benchmark cannot yet attribute.
type span struct {
	name  string // "<layer>.<call>"
	id    uint64 // window or operation id; 0 for spans outside any root
	start int64  // ns since the recorder's epoch
	end   int64
}

func (s span) layer() string {
	if l, _, found := strings.Cut(s.name, "."); found {
		return l
	}
	return s.name
}

func (s span) root() bool { return s.layer() == "e2e" }

// recorder keeps spans in memory until the run ends. Only the traced half
// of a --trace 1 run has one; every method is a no-op on a nil recorder so
// call sites need no guards.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// now reads the recorder clock (0 on a nil recorder: nothing is timed).
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// at converts a wall instant to the recorder clock.
func (r *recorder) at(t time.Time) int64 {
	if r == nil {
		return 0
	}
	return int64(t.Sub(r.epoch))
}

// add records a finished span.
func (r *recorder) add(name string, id uint64, start, end int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, id: id, start: start, end: end})
	r.mu.Unlock()
}

// group is one root with the layer spans of its id.
type group struct {
	root span
	kids []span
}

// groups collects, per id, the root span and the other spans of that id,
// in id order; ids without a root are left out.
func (r *recorder) groups() []group {
	r.mu.Lock()
	byID := make(map[uint64]*group)
	var ids []uint64
	for _, s := range r.spans {
		if s.id == 0 {
			continue
		}
		g := byID[s.id]
		if g == nil {
			g = &group{}
			byID[s.id] = g
			ids = append(ids, s.id)
		}
		if s.root() {
			g.root = s
		} else {
			g.kids = append(g.kids, s)
		}
	}
	r.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]group, 0, len(ids))
	for _, id := range ids {
		if g := byID[id]; g.root.name != "" {
			out = append(out, *g)
		}
	}
	return out
}

// union is the length of the union of the spans' intervals inside [lo, hi).
func union(spans []span, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.start, lo), min(s.end, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := iv[0][0], iv[0][1]
	for _, v := range iv[1:] {
		if v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// selfByLayer sums self time per layer, in seconds: a layer span's self
// time is its duration, a root's is what its layer spans leave uncovered.
func (r *recorder) selfByLayer() map[string]float64 {
	out := make(map[string]float64)
	r.mu.Lock()
	for _, s := range r.spans {
		if !s.root() {
			out[s.layer()] += float64(s.end-s.start) / 1e9
		}
	}
	r.mu.Unlock()
	for _, g := range r.groups() {
		out["e2e"] += float64(g.root.end-g.root.start-union(g.kids, g.root.start, g.root.end)) / 1e9
	}
	return out
}

// unaccounted is the share of the median end-to-end interval that the
// blocking-path self times do not cover: 1 − Σ_layer median(time the
// layer's spans cover inside one root) / median(root duration), over the
// roots named root. Per-layer medians that add up to the end-to-end
// median give 0; a layer this benchmark cannot see shows as the rest.
func (r *recorder) unaccounted(root string) (ratio float64, roots int) {
	var gs []group
	layerSet := make(map[string]bool)
	for _, g := range r.groups() {
		if g.root.name == root {
			gs = append(gs, g)
			for _, k := range g.kids {
				layerSet[k.layer()] = true
			}
		}
	}
	if len(gs) == 0 {
		return 0, 0
	}
	layers := make([]string, 0, len(layerSet))
	for l := range layerSet {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	durs := make([]float64, len(gs))
	var sum float64
	for _, l := range layers {
		cov := make([]float64, len(gs))
		for i, g := range gs {
			var ss []span
			for _, k := range g.kids {
				if k.layer() == l {
					ss = append(ss, k)
				}
			}
			cov[i] = float64(union(ss, g.root.start, g.root.end))
		}
		sum += median(cov)
	}
	for i, g := range gs {
		durs[i] = float64(g.root.end - g.root.start)
	}
	return 1 - sum/median(durs), len(gs)
}

// chromeEvent is one Chrome trace_event complete slice; Perfetto and
// about:tracing load the file as is.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace_event JSON, one lane (tid)
// per layer, with the per-layer self-time summary under otherData.
func (r *recorder) writeChrome(w io.Writer, meta map[string]any) error {
	summary := r.selfByLayer()
	r.mu.Lock()
	defer r.mu.Unlock()
	tids := make(map[string]int)
	events := make([]chromeEvent, 0, len(r.spans))
	for _, s := range r.spans {
		l := s.layer()
		tid, ok := tids[l]
		if !ok {
			tid = len(tids) + 1
			tids[l] = tid
		}
		args := map[string]string{"id": strconv.FormatUint(s.id, 16)}
		events = append(events, chromeEvent{
			Name: s.name, Cat: l, Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: tid, Args: args,
		})
	}
	layers := make([]string, 0, len(tids))
	for l := range tids {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: tids[l],
			Args: map[string]string{"name": l}})
	}
	other := map[string]any{"self_time_s_by_layer": summary}
	for k, v := range meta {
		other[k] = v
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       other,
	})
}

// writeTrace stores the traced half's spans under .bench_build/traces.
func (b *bench) writeTrace() error {
	if b.rec == nil {
		return nil
	}
	dir := filepath.Join(b.opts.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, b.opts.workload+"-seed"+strconv.FormatInt(b.opts.seed, 10)+".chrome.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	meta := map[string]any{"workload": b.opts.workload, "seed": b.opts.seed, "seconds": b.opts.seconds}
	return errors.Join(b.rec.writeChrome(f, meta), f.Close())
}

// sourceDigest hashes the module's Go sources and module files, so a
// result names the code it measured even where no commit id is available.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		// hash.Hash documents that Write never returns an error.
		h.Write([]byte(rel)) //lppm:allow droppederr -- hash.Hash Write never fails
		h.Write([]byte{0})   //lppm:allow droppederr -- hash.Hash Write never fails
		h.Write(data)        //lppm:allow droppederr -- hash.Hash Write never fails
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
