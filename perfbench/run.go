package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"alwaysencrypted/internal/driver"
	"alwaysencrypted/internal/obs"
	"alwaysencrypted/internal/tpcc"
)

// deployment is one tpcc.World, loaded and connected, with the numbers its
// set-up produced.
type deployment struct {
	wl     *workload
	world  *tpcc.World
	drvObs *obs.Registry // the driver.Config.Obs every terminal reports into
	now    clock
	traced bool

	deploy, load, connect, warmup time.Duration
	heapBytes                     uint64
	rowsLoaded                    int64
	walBytesAfterLoad             int

	terms      []*terminal
	setupSpans []span
}

// setupTime is the set-up metric: everything after tpcc.NewWorld returns.
func (d *deployment) setupTime() time.Duration { return d.load + d.connect + d.warmup }

// terminal is one tpcc.Terminal with the benchmark's seams around it.
type terminal struct {
	id     int
	t      *tpcc.Terminal
	conn   *driver.Conn
	link   *link // nil when untraced
	served chan struct{}
	mix    *rand.Rand

	lat       [5][]time.Duration // completed transactions only
	attempted [5]int
	completed [5]int
	failed    [5]int
	rollbacks int // the spec's 1% NewOrder rollbacks, counted as completed
	firstErr  error
	txnSpans  []span
}

// deploy stands up and loads one world, connects the workload's terminals
// and warms them up. seed feeds only the terminal and mix RNGs.
func deploy(wl *workload, scale tpcc.Scale, seed int64, warmTxns int, traced bool) (*deployment, error) {
	d := &deployment{wl: wl, now: monotonic(), traced: traced, drvObs: obs.New("perfbench.driver")}
	t0 := d.now()
	w, err := tpcc.NewWorld(tpcc.WorldOptions{
		Mode: wl.mode, Scale: scale, EnclaveThreads: enclaveThreads, CTR: true,
		LogSyncDelay: 0,
	})
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	d.world = w
	t1 := d.now()
	d.deploy = time.Duration(t1 - t0)

	if err := w.Load(); err != nil {
		d.close()
		return nil, fmt.Errorf("load: %w", err)
	}
	t2 := d.now()
	d.load = time.Duration(t2 - t1)
	d.rowsLoaded = w.RowsLoaded()

	// Untimed: a forced GC for the live-heap figure and a walk of the log.
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	d.heapBytes = ms.HeapAlloc
	d.walBytesAfterLoad = w.Engine.WAL().RetainedBytes()

	t3 := d.now()
	cache := driver.NewCache() // process-wide driver caches (§4.1)
	cfg := w.DriverConfig(wl.describeCache)
	cfg.Obs = d.drvObs
	for i := 0; i < wl.terminals; i++ {
		tm, err := d.connectTerminal(i, seed, cfg, cache)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("connect: %w", err)
		}
		d.terms = append(d.terms, tm)
	}
	t4 := d.now()
	d.connect = time.Duration(t4 - t3)

	d.runAll(warmTxns, false)
	for _, tm := range d.terms {
		if tm.firstErr != nil {
			d.close()
			return nil, fmt.Errorf("warm-up: %w", tm.firstErr)
		}
		tm.reset()
	}
	t5 := d.now()
	d.warmup = time.Duration(t5 - t4)
	if traced {
		d.setupSpans = []span{
			{kind: kindSetupDeploy, typ: -1, start: t0, end: t1},
			{kind: kindSetupLoad, typ: -1, start: t1, end: t2},
			{kind: kindSetupConnect, typ: -1, start: t3, end: t4},
			{kind: kindSetupWarmup, typ: -1, start: t4, end: t5},
		}
	}
	return d, nil
}

func (d *deployment) connectTerminal(i int, seed int64, cfg driver.Config, cache *driver.Cache) (*terminal, error) {
	cc, sc, err := tcpPair()
	if err != nil {
		return nil, err
	}
	tm := &terminal{id: i, served: make(chan struct{}), mix: rand.New(rand.NewSource(seed*64 + 32 + int64(i)))}
	if d.traced {
		tm.link = newLink(d.now)
		cc, sc = clientEnd{cc, tm.link}, serverEnd{sc, tm.link}
	}
	go func() {
		d.world.Server.ServeConn(sc)
		close(tm.served)
	}()
	tm.conn = driver.Open(cc, cfg, cache)
	tm.t = tpcc.NewTerminal(d.world, tm.conn, 1+i%d.world.Scale.Warehouses, seed*64+int64(i))
	return tm, nil
}

func (tm *terminal) reset() {
	*tm = terminal{id: tm.id, t: tm.t, conn: tm.conn, link: tm.link, served: tm.served, mix: tm.mix}
}

// runAll runs n transactions on every terminal concurrently and returns the
// wall time until the last one finishes. Measured transactions get nonzero
// IDs; warm-up transactions run as ID 0, like set-up.
func (d *deployment) runAll(n int, measured bool) time.Duration {
	seqs := make([][]int, len(d.terms))
	for i, tm := range d.terms {
		seqs[i] = d.wl.mix(tm.mix, n)
	}
	var wg sync.WaitGroup
	start := d.now()
	for i, tm := range d.terms {
		wg.Add(1)
		go func(tm *terminal, seq []int) {
			defer wg.Done()
			tm.run(d.now, seq, measured)
		}(tm, seqs[i])
	}
	wg.Wait()
	return time.Duration(d.now() - start)
}

func (tm *terminal) run(now clock, seq []int, measured bool) {
	for j, typ := range seq {
		var id uint64
		if measured {
			id = uint64(tm.id+1)<<32 | uint64(j+1)
		}
		if tm.link != nil {
			tm.link.txn.Store(id)
		}
		start := now()
		err := tm.call(typ)
		end := now()
		if tm.link != nil {
			tm.link.endRT()
			tm.link.txn.Store(0)
			tm.txnSpans = append(tm.txnSpans, span{txn: id, kind: kindTxn, typ: int8(typ), start: start, end: end})
		}
		tm.attempted[typ]++
		switch {
		case err == nil:
		case typ == tpcc.TxNewOrder && isIntentionalRollback(err):
			tm.rollbacks++
		default:
			tm.failed[typ]++
			if tm.firstErr == nil {
				tm.firstErr = fmt.Errorf("%s: %w", tpcc.TxTypeNames[typ], err)
			}
			continue
		}
		tm.completed[typ]++
		tm.lat[typ] = append(tm.lat[typ], time.Duration(end-start))
	}
}

func (tm *terminal) call(typ int) error {
	switch typ {
	case tpcc.TxNewOrder:
		return tm.t.NewOrder()
	case tpcc.TxPayment:
		return tm.t.Payment()
	case tpcc.TxOrderStatus:
		return tm.t.OrderStatus()
	case tpcc.TxDelivery:
		return tm.t.Delivery()
	case tpcc.TxStockLevel:
		return tm.t.StockLevel()
	}
	return errors.New("unknown transaction type")
}

// isIntentionalRollback recognizes the spec's 1% NewOrder with an invalid
// item. tpcc does not export the sentinel, so the benchmark matches its text.
func isIntentionalRollback(err error) bool {
	return strings.Contains(err.Error(), "intentional rollback")
}

// close disconnects the terminals, waits for their server goroutines and
// tears the world down.
func (d *deployment) close() {
	for _, tm := range d.terms {
		tm.conn.Close()
		<-tm.served
	}
	if d.world != nil {
		d.world.Close()
		d.world = nil // a closed world must not stay reachable from its window
	}
}
