package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/internal/sim/shard"
	"repro/internal/view"
)

// decideTimer wraps a sim.Factory so that every Decide call is timed.
// Each decider keeps its own totals (the sweep runs deciders on several
// workers, and shared counters would contend); sum adds them up.
type decideTimer struct {
	mu       sync.Mutex
	deciders []*timedDecider
}

type timedDecider struct {
	inner sim.Decider
	nanos int64
	calls int64
}

func (d *timedDecider) Decide(r int, b *view.View) ([]int, bool) {
	t := time.Now()
	out, done := d.inner.Decide(r, b)
	d.nanos += int64(time.Since(t))
	d.calls++
	return out, done
}

func (dt *decideTimer) wrap(f sim.Factory) sim.Factory {
	return func(simID, deg int) sim.Decider {
		d := &timedDecider{inner: f(simID, deg)}
		dt.mu.Lock()
		dt.deciders = append(dt.deciders, d)
		dt.mu.Unlock()
		return d
	}
}

// sum returns the total Decide time and call count; call it after the
// run has returned.
func (dt *decideTimer) sum() (time.Duration, int64) {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	var nanos, calls int64
	for _, d := range dt.deciders {
		nanos += d.nanos
		calls += d.calls
	}
	return time.Duration(nanos), calls
}

// countingTransport wraps a shard.Transport and counts what crosses it:
// sends per kind, the class ids and view bodies they carry, data and
// view legs sent again for a round they were already sent for
// (resends: the engine gives every send a fresh sequence number), and
// the time shards spend waiting in Recv.
type countingTransport struct {
	inner shard.Transport

	mu                       sync.Mutex
	seen                     map[legKey]struct{}
	data, views, acks        int
	payloadIDs, shippedViews int
	firstSends, resends      int
	recvWait                 atomic.Int64
}

type legKey struct {
	from, to int
	kind     shard.Kind
	round    int
}

func newCountingTransport(inner shard.Transport) *countingTransport {
	return &countingTransport{inner: inner, seen: map[legKey]struct{}{}}
}

func (t *countingTransport) Send(m shard.Message) error {
	t.mu.Lock()
	switch m.Kind {
	case shard.KindData:
		t.data++
		t.payloadIDs += len(m.Payload)
	case shard.KindView:
		t.views++
		t.shippedViews += len(m.Views)
	case shard.KindAck:
		t.acks++
	}
	if m.Kind == shard.KindData || m.Kind == shard.KindView {
		k := legKey{m.From, m.To, m.Kind, m.Round}
		if _, ok := t.seen[k]; ok {
			t.resends++
		} else {
			t.seen[k] = struct{}{}
			t.firstSends++
		}
	}
	t.mu.Unlock()
	return t.inner.Send(m)
}

func (t *countingTransport) Recv(s int, timeout time.Duration) (shard.Message, bool) {
	start := time.Now()
	m, ok := t.inner.Recv(s, timeout)
	t.recvWait.Add(int64(time.Since(start)))
	return m, ok
}

func (t *countingTransport) Reset(s int) { t.inner.Reset(s) }

// counts returns the transport's counters as per-layer metrics.
func (t *countingTransport) counts() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	ratio := 0.0
	if t.firstSends > 0 {
		ratio = float64(t.resends) / float64(t.firstSends)
	}
	return map[string]float64{
		"shard.sends_data":    float64(t.data),
		"shard.sends_view":    float64(t.views),
		"shard.sends_ack":     float64(t.acks),
		"shard.payload_ids":   float64(t.payloadIDs),
		"shard.shipped_views": float64(t.shippedViews),
		"shard.resends":       float64(t.resends),
		"shard.resend_ratio":  ratio,
		"shard.recv_wait_s":   time.Duration(t.recvWait.Load()).Seconds(),
	}
}

// timedJournal wraps a shard.Journal and sums the time spent in it and
// the view bodies it is asked to persist.
type timedJournal struct {
	inner shard.Journal
	nanos atomic.Int64
	views atomic.Int64
}

func (j *timedJournal) time(start time.Time) { j.nanos.Add(int64(time.Since(start))) }

func (j *timedJournal) Checkpoint(s int, rec shard.Record) error {
	defer j.time(time.Now())
	return j.inner.Checkpoint(s, rec)
}

func (j *timedJournal) Ghosts(s int, gr shard.GhostRecord) error {
	defer j.time(time.Now())
	return j.inner.Ghosts(s, gr)
}

func (j *timedJournal) Views(s, peer int, views []shard.WireView) error {
	defer j.time(time.Now())
	j.views.Add(int64(len(views)))
	return j.inner.Views(s, peer, views)
}

func (j *timedJournal) Restore(s int) (shard.Restored, error) {
	defer j.time(time.Now())
	return j.inner.Restore(s)
}

func (j *timedJournal) counts() map[string]float64 {
	return map[string]float64{
		"shard.journal_s":     time.Duration(j.nanos.Load()).Seconds(),
		"shard.journal_views": float64(j.views.Load()),
	}
}
