package main

import (
	"testing"

	"alwaysencrypted/internal/tpcc"
)

// TestSingleTerminalCountsRepeat runs each single-terminal workload twice at
// one seed on a small population and requires the traced window's exact
// counts to match: with one terminal the work is a function of the seed.
func TestSingleTerminalCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up four worlds")
	}
	scale := tpcc.Scale{Warehouses: 1, DistrictsPerWarehouse: 10, CustomersPerDistrict: 30, Items: 200, InitialOrdersPerDistrict: 30}
	exact := []string{
		"tds.round_trips_per_txn", "tds.bytes_out_per_txn", "tds.bytes_in_per_txn",
		"enclave.evals_per_txn", "engine.statements_per_txn", "wal.records_per_txn",
	}
	for _, wl := range workloads {
		if wl.terminals != 1 {
			continue
		}
		var runs [2]map[string]float64
		for i := range runs {
			d, err := deploy(wl, scale, 42, 10, true)
			if err != nil {
				t.Fatal(err)
			}
			win, err := measure(d, 60, 42)
			d.close()
			if err != nil {
				t.Fatal(err)
			}
			if !win.ok() {
				t.Fatalf("%s: run %d failed: gate %v, first error %v", wl.name, i, win.gateErr, win.firstErr)
			}
			ms, err := layerMetrics(win)
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = map[string]float64{}
			for _, m := range ms {
				runs[i][m.name] = m.value
			}
		}
		for _, name := range exact {
			if runs[0][name] != runs[1][name] {
				t.Errorf("%s: %s = %v then %v", wl.name, name, runs[0][name], runs[1][name])
			}
		}
		if runs[0]["tds.round_trips_per_txn"] == 0 || runs[0]["engine.statements_per_txn"] == 0 {
			t.Errorf("%s: no work counted: %v", wl.name, runs[0])
		}
	}
}
