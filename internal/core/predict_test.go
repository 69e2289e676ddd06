package core

import "testing"

func TestEWMAPredictor(t *testing.T) {
	p := NewEWMAPredictor(2, 0.5)
	if p.Predict(0) != 0 {
		t.Fatal("no history must predict 0")
	}
	p.Observe(0, 100)
	if p.Predict(0) != 100 {
		t.Fatalf("first observation must seed the estimate, got %v", p.Predict(0))
	}
	p.Observe(0, 200)
	if got := p.Predict(0); got != 150 {
		t.Fatalf("EWMA(0.5) after 100,200 = %v, want 150", got)
	}
	if p.Predict(1) != 0 {
		t.Fatal("threads must be independent")
	}
}

func TestEWMAPredictorBadAlpha(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("alpha 0 accepted")
		}
	}()
	NewEWMAPredictor(1, 0)
}

func TestPeriodicPredictorTracksPhases(t *testing.T) {
	// A 3-phase program: counts 100, 500, 50 repeating. After one full
	// period the predictor must be exact.
	p := NewPeriodicPredictor(1, 3)
	pattern := []float64{100, 500, 50}
	for rep := 0; rep < 3; rep++ {
		for phase, n := range pattern {
			if rep > 0 {
				if got := p.Predict(0); got != n {
					t.Fatalf("rep %d phase %d: predicted %v, want %v", rep, phase, got, n)
				}
			}
			p.Observe(0, n)
		}
	}
	// EWMA, by contrast, cannot be exact on this pattern.
	e := NewEWMAPredictor(1, 0.5)
	exact := true
	for rep := 0; rep < 3; rep++ {
		for _, n := range pattern {
			if rep > 0 && e.Predict(0) != n {
				exact = false
			}
			e.Observe(0, n)
		}
	}
	if exact {
		t.Fatal("EWMA should not track a 3-phase pattern exactly")
	}
}

func TestPredictThreads(t *testing.T) {
	ths := []Thread{{N: 100, CPIBase: 1, Err: ZeroErr}, {N: 200, CPIBase: 1, Err: ZeroErr}}
	p := NewEWMAPredictor(2, 1)
	p.Observe(0, 500)
	out := PredictThreads(p, ths)
	if out[0].N != 500 {
		t.Fatalf("thread 0 N = %v, want predicted 500", out[0].N)
	}
	if out[1].N != 200 {
		t.Fatalf("thread 1 N = %v, want fallback 200 (no history)", out[1].N)
	}
	if ths[0].N != 100 {
		t.Fatal("inputs must not be mutated")
	}
}
