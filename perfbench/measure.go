package main

import (
	"fmt"
	"runtime"
	"time"

	"alwaysencrypted/internal/obs"
	"alwaysencrypted/internal/tpcc"
)

// window is one measured stretch of a deployment: n transactions per
// terminal, with every counter the benchmark reads captured on both sides.
type window struct {
	d    *deployment
	wall time.Duration

	srvBefore, srvAfter obs.Snapshot // World.Obs: engine, enclave, storage
	drvBefore, drvAfter obs.Snapshot // the driver.Config.Obs registry
	lsnBefore, lsnAfter uint64
	walBefore, walAfter int
	memBefore, memAfter runtime.MemStats

	attempted, completed, failed [5]int
	rollbacks                    int
	firstErr                     error
	gateSummary                  string
	gateErr                      error
}

// measure runs the window on d and then the correctness gate.
func measure(d *deployment, n int, seed int64) (*window, error) {
	w := d.world
	c := newChecker(w)
	ordersBefore, err := c.countOrders()
	c.close()
	if err != nil {
		return nil, err
	}
	win := &window{d: d}
	runtime.GC()
	win.srvBefore, win.drvBefore = w.Obs.Snapshot(), d.drvObs.Snapshot()
	win.lsnBefore, win.walBefore = w.Engine.WAL().NextLSN(), w.Engine.WAL().RetainedBytes()
	runtime.ReadMemStats(&win.memBefore)

	win.wall = d.runAll(n, true)

	runtime.ReadMemStats(&win.memAfter)
	win.srvAfter, win.drvAfter = w.Obs.Snapshot(), d.drvObs.Snapshot()
	win.lsnAfter, win.walAfter = w.Engine.WAL().NextLSN(), w.Engine.WAL().RetainedBytes()

	for _, tm := range d.terms {
		for typ := range tm.attempted {
			win.attempted[typ] += tm.attempted[typ]
			win.completed[typ] += tm.completed[typ]
			win.failed[typ] += tm.failed[typ]
		}
		win.rollbacks += tm.rollbacks
		if win.firstErr == nil {
			win.firstErr = tm.firstErr
		}
	}
	committedNewOrders := win.completed[tpcc.TxNewOrder] - win.rollbacks
	win.gateSummary, win.gateErr = gate(w, ordersBefore, committedNewOrders, seed)
	return win, nil
}

func sum(xs [5]int) int { return xs[0] + xs[1] + xs[2] + xs[3] + xs[4] }

func (win *window) txns() int { return sum(win.completed) }

func (win *window) ok() bool { return win.gateErr == nil && sum(win.failed) == 0 }

func (win *window) tps() float64 { return float64(win.txns()) / win.wall.Seconds() }

// latencies merges one transaction type's samples across terminals.
func (win *window) latencies(typ int) []time.Duration {
	var all []time.Duration
	for _, tm := range win.d.terms {
		all = append(all, tm.lat[typ]...)
	}
	return all
}

// report prints the window's failure accounting, per-type latencies and
// gate outcome in human-readable form.
func (win *window) report(p func(format string, a ...any)) {
	p("window: %d transactions in %.3f s, %.1f tps\n", win.txns(), win.wall.Seconds(), win.tps())
	for typ, name := range tpcc.TxTypeNames {
		if win.attempted[typ] == 0 {
			continue
		}
		lat := win.latencies(typ)
		p("  %-13s attempted %6d completed %6d failed %d (%.2f%%)  p50 %.3f ms  p90 %.3f ms  p95 %.3f ms  (%d samples)\n",
			name, win.attempted[typ], win.completed[typ], win.failed[typ],
			100*float64(win.failed[typ])/float64(win.attempted[typ]),
			ms(percentile(lat, 0.50)), ms(percentile(lat, 0.90)), ms(percentile(lat, 0.95)), len(lat))
	}
	if win.rollbacks > 0 {
		p("  new_order rollbacks (spec's 1%% invalid item, counted as completed): %d\n", win.rollbacks)
	}
	if win.firstErr != nil {
		p("  first failure: %v\n", win.firstErr)
	}
	if win.gateErr != nil {
		p("gate: FAILED: %v\n", win.gateErr)
	} else {
		p("gate: ok: %s\n", win.gateSummary)
	}
}

// histDelta is the growth of a histogram's sum over the window.
func (win *window) histDelta(name string) float64 {
	return float64(win.srvAfter.Histograms[name].Sum - win.srvBefore.Histograms[name].Sum)
}

func (win *window) histCountDelta(name string) float64 {
	return float64(win.srvAfter.Histograms[name].Count - win.srvBefore.Histograms[name].Count)
}

func (win *window) counterDelta(name string) float64 {
	return float64(obs.CounterDelta(win.srvBefore, win.srvAfter, name))
}

// spanTotals adds up the spans of measured transactions (txn ≠ 0). By
// construction every rt span lies inside its txn span and every server span
// inside an rt span, so client (txnNs − rtNs), wire (rtNs − serverNs) and
// server (serverNs) self times are non-negative and sum to txnNs.
type spanTotals struct {
	txnNs, rtNs, serverNs int64
	roundTrips            int64
	bytesOut, bytesIn     int64
}

func sumSpans(terms []*terminal) spanTotals {
	var t spanTotals
	for _, tm := range terms {
		for _, s := range tm.txnSpans {
			if s.txn != 0 {
				t.txnNs += s.dur()
			}
		}
		for _, s := range tm.link.rtSpans {
			if s.txn != 0 {
				t.rtNs += s.dur()
				t.roundTrips++
				t.bytesOut += s.out
				t.bytesIn += s.in
			}
		}
		for _, s := range tm.link.serverSpans {
			if s.txn != 0 {
				t.serverNs += s.dur()
			}
		}
	}
	return t
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// layerMetrics derives the per-layer numbers of a traced window. Self times
// come from the spans: client = txn − Σrt, wire = Σrt − Σserver, and the
// server's share is split by the engine histograms in World.Obs.
func layerMetrics(win *window) ([]metric, error) {
	d := win.d
	n := float64(win.txns())
	if n == 0 {
		return nil, fmt.Errorf("no completed transactions")
	}
	per := func(x float64) float64 { return x / n }
	us := func(ns float64) float64 { return ns / n / 1e3 }

	t := sumSpans(d.terms)
	txnNs, rtNs, srvNs := float64(t.txnNs), float64(t.rtNs), float64(t.serverNs)
	parse := win.histDelta("engine.stmt.lex_ns") + win.histDelta("engine.stmt.parse_ns") + win.histDelta("engine.stmt.bind_ns")
	plan := win.histDelta("engine.stmt.plan_ns") // includes lex, parse and bind on a plan-cache miss
	exec := win.histDelta("engine.stmt.exec_ns")
	rowsPerCrossing := 0.0
	if c := win.histCountDelta("enclave.eval.rows_per_crossing"); c > 0 {
		rowsPerCrossing = win.histDelta("enclave.eval.rows_per_crossing") / c
	}
	hits, misses := win.counterDelta("storage.pool.hits"), win.counterDelta("storage.pool.misses")
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}
	return []metric{
		{"trace.txn_us_per_txn", "us", us(txnNs)},
		{"driver.client_us_per_txn", "us", us(txnNs - rtNs)},
		{"driver.describe_calls_per_txn", "count", per(float64(obs.CounterDelta(win.drvBefore, win.drvAfter, "driver.describe_calls")))},
		{"driver.attestations", "count", float64(win.drvAfter.Counters["driver.attestations"])},
		{"tds.round_trips_per_txn", "count", per(float64(t.roundTrips))},
		{"tds.bytes_out_per_txn", "B", per(float64(t.bytesOut))},
		{"tds.bytes_in_per_txn", "B", per(float64(t.bytesIn))},
		{"tds.wire_us_per_txn", "us", us(rtNs - srvNs)},
		{"server.busy_us_per_txn", "us", us(srvNs)},
		{"server.unattributed_us_per_txn", "us", us(srvNs - plan - exec)},
		{"engine.parse_us_per_txn", "us", us(parse)},
		{"engine.plan_us_per_txn", "us", us(plan - parse)},
		{"engine.exec_us_per_txn", "us", us(exec)},
		{"engine.statements_per_txn", "count", per(win.counterDelta("engine.execs"))},
		{"engine.seeks_per_txn", "count", per(win.counterDelta("engine.seeks"))},
		{"engine.scans_per_txn", "count", per(win.counterDelta("engine.scans"))},
		{"enclave.evals_per_txn", "count", per(win.counterDelta("enclave.evals"))},
		{"enclave.crossings_per_txn", "count", per(win.counterDelta("enclave.crossings"))},
		{"enclave.rows_per_crossing", "count", rowsPerCrossing},
		{"enclave.call_us_per_txn", "us", us(win.histDelta("enclave.eval.call_ns"))},
		{"enclave.queue_wait_us_per_txn", "us", us(win.histDelta("enclave.queue.wait_ns"))},
		{"wal.records_per_txn", "count", per(float64(win.lsnAfter - win.lsnBefore))},
		{"wal.bytes_per_txn", "B", per(float64(win.walAfter - win.walBefore))},
		{"storage.pool.hit_ratio", "ratio", hitRatio},
		{"storage.version.retained_bytes", "B", float64(win.srvAfter.Gauges["storage.version.retained_bytes"])},
		{"go.alloc_bytes_per_txn", "B", per(float64(win.memAfter.TotalAlloc - win.memBefore.TotalAlloc))},
		{"go.gc_cycles_per_ktxn", "count", 1000 * per(float64(win.memAfter.NumGC-win.memBefore.NumGC))},
		{"setup.deploy_s", "s", d.deploy.Seconds()},
		{"setup.load_s", "s", d.load.Seconds()},
		{"setup.load_rows_per_s", "rows/s", float64(d.rowsLoaded) / d.load.Seconds()},
		{"setup.wal_bytes_per_row", "B", float64(d.walBytesAfterLoad) / float64(d.rowsLoaded)},
	}, nil
}
