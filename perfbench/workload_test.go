package main

import (
	"math/rand"
	"reflect"
	"testing"

	"alwaysencrypted/internal/tpcc"
)

func count(seq []int) [5]int {
	var c [5]int
	for _, typ := range seq {
		c[typ]++
	}
	return c
}

func TestStandardMixDealsWholeDecks(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seq := standardMix(rand.New(rand.NewSource(seed)), 1000)
		if got, want := count(seq), [5]int{450, 430, 40, 40, 40}; got != want {
			t.Fatalf("seed %d: mix %v, want %v", seed, got, want)
		}
	}
	a := standardMix(rand.New(rand.NewSource(1)), 300)
	b := standardMix(rand.New(rand.NewSource(2)), 300)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds dealt the same sequence")
	}
	if len(standardMix(rand.New(rand.NewSource(1)), 150)) != 150 {
		t.Fatal("partial deck has the wrong length")
	}
}

func TestReadMixIsHalfAndHalf(t *testing.T) {
	got := count(readMix(rand.New(rand.NewSource(3)), 500))
	if got[tpcc.TxOrderStatus] != 250 || got[tpcc.TxStockLevel] != 250 || sum(got) != 500 {
		t.Fatalf("read mix %v", got)
	}
}

func TestMixesRepeatAtFixedSeed(t *testing.T) {
	for _, wl := range workloads {
		a := wl.mix(rand.New(rand.NewSource(9)), 200)
		b := wl.mix(rand.New(rand.NewSource(9)), 200)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: mix differs at a fixed seed", wl.name)
		}
	}
}
