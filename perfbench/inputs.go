package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/synth"
	"repro/internal/trace"
)

// gatewaySeed is the program's own randomness seed in every workload. The
// run's --seed only generates inputs: the program gets the inputs, never
// the workload seed.
const gatewaySeed = 42

// fleet is a seeded set of per-user record sequences that extends
// cyclically: record i of user u is base[u][i mod n] moved forward by
// (i / n) whole spans, so a user's records stay in time order however many
// a run consumes.
type fleet struct {
	users []string
	index map[string]int
	base  [][]trace.Record
	span  time.Duration
}

// newFleet generates users drivers with perUser records each at the
// synthetic fleet's one-minute period (heterogeneity off, so every driver
// reports at the same period and round-robin order is time order).
func newFleet(seed int64, users, perUser int) (*fleet, error) {
	cfg := synth.DefaultConfig()
	cfg.Seed = seed
	cfg.NumDrivers = users
	cfg.Heterogeneity = 0
	cfg.SamplePeriod = time.Minute
	cfg.Duration = time.Duration(perUser+2) * cfg.SamplePeriod
	gen, err := synth.Generate(cfg, nil)
	if err != nil {
		return nil, err
	}
	f := &fleet{index: make(map[string]int), span: time.Duration(perUser) * cfg.SamplePeriod}
	for _, tr := range gen.Dataset.Traces() {
		if tr.Len() < perUser {
			return nil, fmt.Errorf("driver %s generated %d records, need %d", tr.User, tr.Len(), perUser)
		}
		f.index[tr.User] = len(f.users)
		f.users = append(f.users, tr.User)
		f.base = append(f.base, tr.Records[:perUser])
	}
	return f, nil
}

// record returns record i of user u.
func (f *fleet) record(u, i int) trace.Record {
	b := f.base[u]
	r := b[i%len(b)]
	if lap := i / len(b); lap > 0 {
		r.Time = r.Time.Add(time.Duration(lap) * f.span)
	}
	return r
}

// recordHash digests one record as it crosses the wire: user, unix
// seconds and the exact coordinate bits.
func recordHash(r trace.Record) uint64 {
	h := fnv.New64a()
	h.Write([]byte(r.User)) //lppm:allow droppederr -- hash.Hash documents that Write never returns an error
	var buf [24]byte
	put64(buf[0:], uint64(r.Time.Unix()))
	put64(buf[8:], math.Float64bits(r.Point.Lat))
	put64(buf[16:], math.Float64bits(r.Point.Lng))
	h.Write(buf[:]) //lppm:allow droppederr -- hash.Hash documents that Write never returns an error
	return h.Sum64()
}

func put64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// windowID names window k of a user in one phase; spans of that window
// share it.
func windowID(phase int, user string, k uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(user)) //lppm:allow droppederr -- hash.Hash documents that Write never returns an error
	id := h.Sum64() ^ (uint64(phase)+1)*0x9E3779B97F4A7C15 ^ (k+1)*0xBF58476D1CE4E5B9
	if id == 0 {
		id = 1
	}
	return id
}

// stream digests one user's protected records window by window, so a
// run keeps one number per window rather than one per record: a window's
// digest folds its records' hashes in order, and any changed, missing or
// reordered record changes it.
type stream struct {
	w, n int      // window size; records added
	cur  uint64   // digest of the open (partial) window
	wins []uint64 // digests of the closed windows
}

func newStreams(users, window int) []*stream {
	out := make([]*stream, users)
	for u := range out {
		out[u] = &stream{w: window}
	}
	return out
}

func (s *stream) add(r trace.Record) {
	s.cur = (s.cur ^ recordHash(r)) * 0x100000001b3
	s.n++
	if s.n%s.w == 0 {
		s.wins = append(s.wins, s.cur)
		s.cur = 0
	}
}

// split cuts the stream after its first k windows.
func (s *stream) split(k int) (head, tail *stream) {
	head = &stream{w: s.w, n: k * s.w, wins: s.wins[:k]}
	tail = &stream{w: s.w, n: s.n - k*s.w, cur: s.cur, wins: s.wins[k:]}
	return head, tail
}

// compare counts the records want holds and how many of them got
// misses or gets wrong, a whole window at a time; records got has beyond
// want count as wrong too.
func compare(got, want *stream) (n, bad int) {
	n = want.n
	for i, d := range want.wins {
		if i >= len(got.wins) || got.wins[i] != d {
			bad += want.w
		}
	}
	if p := want.n % want.w; p > 0 && (got.n != want.n || got.cur != want.cur) {
		bad += p
	}
	if got.n > want.n {
		n += got.n - want.n
		bad += got.n - want.n
	}
	return n, bad
}
