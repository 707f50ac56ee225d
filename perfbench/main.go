// Command perfbench is the repository's benchmark: it stands up tpcc.Worlds,
// runs one named workload for a fixed number of transactions, checks the
// database afterwards and prints its metrics. Layers are measured from
// outside the program: the sockets handed to driver.Open and
// tds.Server.ServeConn, the benchmark's own clock around set-up and each
// Terminal transaction, and the program's public counters.
//
//	perfbench --workload tpcc-rnd --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a traced run, beside an untraced run of
// the same seed and size for the tracing overhead. See README.md.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"alwaysencrypted/internal/tpcc"
)

// enclaveThreads is the §5.1 allocation used by every workload.
const enclaveThreads = 4

// warmTxns is the number of warm-up transactions per terminal, counted in
// set-up: enclave sessions attest, CEKs install and plan caches fill.
const warmTxns = 50

// setups is how many worlds an untraced run sets up; setup_s and
// setup_heap_mb are their medians, since one set-up moves with the host.
const setups = 3

// gcPercent is the Go collector's GOGC for the whole run. Client, server
// and a 70 MB loaded database share one heap here, so at the default of 100
// enclave-reads collects every ~90 transactions and the slowest fifth of
// Stock-Levels overlap a mark phase: lead_p90_ms then sits on that knee and
// moves with how fast the host runs the collector. At 400 it collects every
// ~400 transactions, p90 falls below the knee, and collection still costs
// time inside the window (tps, go.gc_cycles_per_ktxn).
const gcPercent = 400

// deadline bounds a whole run; a stuck run exits non-zero without a result.
const deadline = 170 * time.Second

// traceDir is where a traced run writes its spans, inside the build
// directory of the checkout.
var traceDir = filepath.Join(".bench_build", "perfbench")

type config struct {
	wl    *workload
	seed  int64
	trace bool
	txns  int // measured transactions per terminal
	scale tpcc.Scale
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: tpcc-rnd, enclave-reads or neworder-ingest")
	seed := fl.Int64("seed", 1, "seed of the terminal and mix RNGs")
	seconds := fl.Int("seconds", 10, "sizes the fixed transaction count of the measured window")
	traceFlag := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	wl := findWorkload(*name)
	if wl == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 || *seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: need --trace 0|1 and --seconds ≥ 1")
		return 2
	}
	debug.SetGCPercent(gcPercent)
	cfg := config{wl: wl, seed: *seed, trace: *traceFlag == 1, txns: wl.perSecond * *seconds, scale: benchScale()}
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(stderr, "perfbench: run exceeded %v\n", deadline)
		os.Exit(1)
	})
	defer watchdog.Stop()

	p := func(format string, a ...any) { fmt.Fprintf(stdout, format, a...) }
	rec := runRecord(cfg)
	recJSON, _ := json.Marshal(rec)
	p("run-record %s\n", recJSON)

	var res *result
	var err error
	if cfg.trace {
		res, err = tracedRun(cfg, p, recJSON)
	} else {
		res, err = endToEndRun(cfg, p)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := res.marshal()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	p("%s\n", line)
	if !res.correct {
		return 1
	}
	return 0
}

// endToEndRun sets up several worlds, reports the median set-up time and
// heap over them, and measures the last one.
func endToEndRun(cfg config, p func(string, ...any)) (*result, error) {
	var setupS, heapMB []float64
	var win *window
	for i := 0; i < setups; i++ {
		d, err := deploy(cfg.wl, cfg.scale, cfg.seed, warmTxns, false)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, d.setupTime().Seconds())
		heapMB = append(heapMB, float64(d.heapBytes)/1e6)
		d.printSetup(p, i)
		if i == setups-1 {
			win, err = measure(d, cfg.txns, cfg.seed)
		}
		d.close()
		if err != nil {
			return nil, err
		}
	}
	win.report(p)
	lead := win.latencies(cfg.wl.lead)
	res := newResult(win)
	res.metrics = []metric{
		{"tps", "1/s", win.tps()},
		{"setup_s", "s", median(setupS)},
		{"setup_heap_mb", "MB", median(heapMB)},
		{"lead_p50_ms", "ms", ms(percentile(lead, 0.50))},
		{"lead_p90_ms", "ms", ms(percentile(lead, 0.90))},
	}
	p("lead transaction type: %s (%d samples)\n", tpcc.TxTypeNames[cfg.wl.lead], len(lead))
	for typ, name := range tpcc.TxTypeNames {
		if lat := win.latencies(typ); len(lat) > 0 {
			for _, q := range []float64{0.50, 0.90, 0.95} {
				p("%s_p%02.0f_ms %.4f ms\n", name, 100*q, ms(percentile(lat, q)))
			}
		}
	}
	res.print(p)
	return res, nil
}

// tracedRun measures an untraced world and then a traced one with the same
// seed and transaction count; the per-layer metrics come from the traced
// window and the throughput gap between the two is the tracing overhead.
func tracedRun(cfg config, p func(string, ...any), recJSON []byte) (*result, error) {
	var wins [2]*window
	for i, traced := range []bool{false, true} {
		d, err := deploy(cfg.wl, cfg.scale, cfg.seed, warmTxns, traced)
		if err != nil {
			return nil, err
		}
		d.printSetup(p, i)
		wins[i], err = measure(d, cfg.txns, cfg.seed)
		d.close() // the link spans are complete once ServeConn has returned
		if err != nil {
			return nil, err
		}
		p("[traced=%v] ", traced)
		wins[i].report(p)
	}
	plain, traced := wins[0], wins[1]
	metrics, err := layerMetrics(traced)
	if err != nil {
		return nil, err
	}
	overhead := 100 * (plain.tps() - traced.tps()) / plain.tps()
	metrics = append(metrics, metric{"trace.overhead_pct", "%", overhead})
	res := newResult(plain, traced)
	res.metrics = metrics
	if err := writeSpans(cfg, traced.d, recJSON); err != nil {
		return nil, err
	}
	res.print(p)
	return res, nil
}

func (d *deployment) printSetup(p func(string, ...any), i int) {
	p("world %d: deploy %.3f s (not in setup_s); setup_s %.3f s = load %.3f s (%d rows) + connect %.3f s + warm-up %.3f s; live heap %.1f MB\n",
		i, d.deploy.Seconds(), d.setupTime().Seconds(), d.load.Seconds(), d.rowsLoaded,
		d.connect.Seconds(), d.warmup.Seconds(), float64(d.heapBytes)/1e6)
}

// result is what the last line of output reports.
type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
}

func newResult(wins ...*window) *result {
	r := &result{correct: true}
	for _, w := range wins {
		r.attempted += sum(w.attempted)
		r.failed += sum(w.failed)
		r.correct = r.correct && w.ok()
	}
	return r
}

func (r *result) print(p func(string, ...any)) {
	for _, m := range r.metrics {
		p("%-34s %.6g %s\n", m.name, m.value, m.unit)
	}
	p("correct %v; attempted %d, failed %d (%.2f%%)\n", r.correct, r.attempted, r.failed,
		100*float64(r.failed)/float64(r.attempted))
}

func (r *result) marshal() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
}

// runRecord fingerprints the host, the code and the run's settings.
func runRecord(cfg config) map[string]any {
	s := cfg.scale
	return map[string]any{
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
		"commit":          commit(),
		"source_sha256":   sourceHash(),
		"workload":        cfg.wl.name,
		"seed":            cfg.seed,
		"trace":           cfg.trace,
		"mode":            cfg.wl.mode.String(),
		"scale":           fmt.Sprintf("W=%d D=%d C=%d I=%d O=%d", s.Warehouses, s.DistrictsPerWarehouse, s.CustomersPerDistrict, s.Items, s.InitialOrdersPerDistrict),
		"terminals":       cfg.wl.terminals,
		"txns_per_term":   cfg.txns,
		"warmup_per_term": warmTxns,
		"setups":          setups,
		"enclave_threads": enclaveThreads,
		"gc_percent":      gcPercent,
		"describe_cache":  cfg.wl.describeCache,
		// Simulated costs: tpcc.WorldOptions.LogSyncDelay is passed as 0 and
		// tpcc.NewWorld leaves enclave.Options.EvalLatency unset.
		"log_sync_delay_ns": 0,
		"eval_latency_ns":   0,
	}
}

// commit is the checked-out commit when the working directory is a git
// checkout, and "none" otherwise.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source and go.mod under the working
// directory, skipping hidden directories, so runs of the same code can be
// matched without git.
func sourceHash() string {
	var files []string
	filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && path != "." && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeSpans writes the traced deployment's spans, one JSON object per line
// after a first line holding the run record.
func writeSpans(cfg config, d *deployment, recJSON []byte) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("spans-%s.jsonl", cfg.wl.name))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "%s\n", recJSON)
	emit := func(spans []span) {
		for _, s := range spans {
			fmt.Fprintf(w, `{"txn":%d,"kind":%q,"type":%d,"start_ns":%d,"end_ns":%d,"out":%d,"in":%d}`+"\n",
				s.txn, s.kind, s.typ, s.start, s.end, s.out, s.in)
		}
	}
	emit(d.setupSpans)
	for _, tm := range d.terms {
		emit(tm.txnSpans)
		emit(tm.link.rtSpans)
		emit(tm.link.serverSpans)
	}
	return errors.Join(w.Flush(), f.Close())
}
