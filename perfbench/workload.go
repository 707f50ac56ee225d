package main

import (
	"math/rand"

	"alwaysencrypted/internal/tpcc"
)

// workload is one traffic mix. Every workload is closed loop with no think
// time: each terminal sends its next transaction when the previous one has
// returned. A run executes a fixed number of transactions, so every run of a
// workload does the same work however fast the program is.
type workload struct {
	name          string
	why           string
	mode          tpcc.Mode
	terminals     int  // one per home warehouse, 1..terminals
	describeCache bool // driver describe cache (§5.4.1)
	// perSecond is the number of measured transactions each terminal runs
	// per requested second. It is a fixed count, sized so that a run takes
	// about --seconds on a 2-core host; it never adapts to the speed of the
	// code under test.
	perSecond int
	// lead is the transaction type reported as lead_p50_ms / lead_p90_ms.
	lead int
	// mix returns the types of the next n transactions.
	mix func(rng *rand.Rand, n int) []int
}

var workloads = []*workload{
	{
		name: "tpcc-rnd",
		why: "the paper's Fig. 9 configuration: standard mix in SQL-AE-RND, describe cache off, " +
			"two concurrent terminals; the only workload where describe round trips, locks and concurrent committers work",
		mode: tpcc.ModeRND, terminals: 2, describeCache: false,
		perSecond: 170, lead: tpcc.TxNewOrder, mix: standardMix,
	},
	{
		name: "enclave-reads",
		why: "Order-Status and Stock-Level in equal numbers in SQL-AE-RND-STOCK, one terminal: " +
			"enclave comparisons dominate, the log and client crypto do almost nothing",
		mode: tpcc.ModeRNDStock, terminals: 1, describeCache: true,
		perSecond: 550, lead: tpcc.TxStockLevel, mix: readMix,
	},
	{
		name: "neworder-ingest",
		why: "NewOrder only in SQL-AE-RND-STOCK, one terminal: log records, inserts and client " +
			"cell crypto with zero enclave evaluations",
		mode: tpcc.ModeRNDStock, terminals: 1, describeCache: true,
		perSecond: 350, lead: tpcc.TxNewOrder, mix: newOrderMix,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// standardMix is the TPC-C mix dealt from shuffled decks of 100 cards, as
// TPC-C clause 5.2.4.2 allows: NewOrder 45, Payment 43, Order-Status 4,
// Delivery 4, Stock-Level 4. Every full deck has exactly these shares, so a
// run's composition does not depend on the seed.
func standardMix(rng *rand.Rand, n int) []int {
	deck := make([]int, 0, 100)
	for typ, cards := range [5]int{45, 43, 4, 4, 4} {
		for i := 0; i < cards; i++ {
			deck = append(deck, typ)
		}
	}
	seq := make([]int, 0, n+len(deck))
	for len(seq) < n {
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		seq = append(seq, deck...)
	}
	return seq[:n]
}

// readMix is Order-Status and Stock-Level in equal numbers, shuffled.
func readMix(rng *rand.Rand, n int) []int {
	seq := make([]int, n)
	for i := range seq {
		seq[i] = tpcc.TxOrderStatus
		if i%2 == 1 {
			seq[i] = tpcc.TxStockLevel
		}
	}
	rng.Shuffle(n, func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

func newOrderMix(_ *rand.Rand, n int) []int {
	seq := make([]int, n)
	for i := range seq {
		seq[i] = tpcc.TxNewOrder
	}
	return seq
}

// benchScale is the population every workload loads. Initial orders per
// district equal customers per district, as in TPC-C, so Order-Status reads
// a real order; bulk load dominates set-up time.
func benchScale() tpcc.Scale {
	return tpcc.Scale{
		Warehouses:               2,
		DistrictsPerWarehouse:    10,
		CustomersPerDistrict:     300,
		Items:                    1000,
		InitialOrdersPerDistrict: 300,
	}
}
