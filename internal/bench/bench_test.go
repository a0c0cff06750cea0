package bench

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pipemem/internal/core"
	"pipemem/internal/traffic"
)

// TestMapOrder: results come back in input order for every worker count.
func TestMapOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i * 3
	}
	for _, workers := range []int{0, 1, 2, 7, 100, 1000} {
		got, err := Map(workers, items, func(i, item int) (int, error) {
			return i*1000 + item, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*1000+items[i] {
				t.Fatalf("workers=%d: result[%d] = %d", workers, i, v)
			}
		}
	}
}

// TestMapError: every item is attempted, and the reported error is the
// lowest-indexed failure, wrapped with its index.
func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	ran := make([]bool, 10)
	_, err := Map(4, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, func(i, item int) (int, error) {
		ran[i] = true
		if i == 3 || i == 7 {
			return 0, fmt.Errorf("item %d: %w", i, boom)
		}
		return item, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error not wrapped: %v", err)
	}
	if !strings.Contains(err.Error(), "point 3") {
		t.Fatalf("want lowest-indexed failure (point 3), got %v", err)
	}
	for i, r := range ran {
		if !r {
			t.Fatalf("item %d was skipped after an earlier failure", i)
		}
	}
}

// TestMapEmpty: no items, no workers spawned, no error.
func TestMapEmpty(t *testing.T) {
	got, err := Map(8, nil, func(i, item int) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestSweepDeterministic: a sweep's measured values are identical no
// matter how many workers simulate it — every point owns its RNG.
func TestSweepDeterministic(t *testing.T) {
	var pts []Point
	for seed := uint64(1); seed <= 4; seed++ {
		pts = append(pts, Point{
			Label:   fmt.Sprintf("seed=%d", seed),
			Config:  core.Config{Ports: 4, WordBits: 16, Cells: 32, CutThrough: true},
			Traffic: traffic.Config{Kind: traffic.Bernoulli, N: 4, Load: 0.8, Seed: seed},
			Cycles:  2000,
		})
	}
	serial, err := Sweep(1, pts)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Sweep(4, pts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel sweep diverged from serial:\n%v\nvs\n%v", parallel, serial)
	}
	for _, r := range serial {
		if r.Run.Delivered == 0 {
			t.Fatalf("%s delivered nothing", r.Point.Label)
		}
	}
}

// TestSweepError: a bad point surfaces its label and does not poison the
// other points' slots.
func TestSweepError(t *testing.T) {
	pts := []Point{
		{
			Label:   "good",
			Config:  core.Config{Ports: 2, WordBits: 16, Cells: 8, CutThrough: true},
			Traffic: traffic.Config{Kind: traffic.Bernoulli, N: 2, Load: 0.5, Seed: 1},
			Cycles:  500,
		},
		{
			Label:   "bad",
			Config:  core.Config{Ports: -3},
			Traffic: traffic.Config{Kind: traffic.Bernoulli, N: 2, Load: 0.5, Seed: 1},
			Cycles:  500,
		},
	}
	results, err := Sweep(2, pts)
	if err == nil {
		t.Fatal("want error from bad point")
	}
	if !strings.Contains(err.Error(), "bad") {
		t.Fatalf("error does not name the point: %v", err)
	}
	if results[0].Run.Delivered == 0 {
		t.Fatal("good point's result was lost")
	}
}
