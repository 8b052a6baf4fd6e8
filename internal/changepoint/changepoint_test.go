package changepoint

import (
	"math/rand/v2"
	"testing"
)

func TestDetectsUpShift(t *testing.T) {
	d := &Detector{Target: 0.30, Drift: 0.02, Threshold: 0.10}
	// Noise around the target: no detection.
	rng := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 200; i++ {
		if got := d.Observe(0.30 + 0.01*rng.NormFloat64()); got != None {
			t.Fatalf("false positive at %d: %v", i, got)
		}
	}
	// A sustained +0.15 shift: detected within a few samples.
	detected := -1
	for i := 0; i < 20; i++ {
		if d.Observe(0.45) == Up {
			detected = i
			break
		}
	}
	if detected < 0 {
		t.Fatal("up shift never detected")
	}
	if detected > 5 {
		t.Fatalf("detection took %d samples", detected)
	}
	// After recentring, the new level is quiet.
	for i := 0; i < 50; i++ {
		if d.Observe(0.45) != None {
			t.Fatal("re-detected the same level")
		}
	}
}

func TestDetectsDownShift(t *testing.T) {
	d := &Detector{Target: 0.50, Drift: 0.02, Threshold: 0.10}
	got := None
	for i := 0; i < 20 && got == None; i++ {
		got = d.Observe(0.30)
	}
	if got != DownShift {
		t.Fatalf("direction = %v", got)
	}
	if d.Target != 0.30 {
		t.Fatalf("recentre target = %g", d.Target)
	}
}

func TestSingleTickDoesNotTrigger(t *testing.T) {
	// The failure mode of the Edge policy: one price tick up then back.
	d := &Detector{Target: 0.30, Drift: 0.02, Threshold: 0.10}
	if d.Observe(0.35) != None {
		t.Fatal("single tick triggered")
	}
	for i := 0; i < 100; i++ {
		if d.Observe(0.30) != None {
			t.Fatal("return to target triggered")
		}
	}
}

// TestPressure checks the positive-side sum Observe accumulates, as a
// fraction of the threshold: how close the stream is to an upward
// detection.
func TestPressure(t *testing.T) {
	d := &Detector{Target: 0.30, Drift: 0.0, Threshold: 0.10}
	if d.gPos/d.Threshold != 0 {
		t.Fatal("initial pressure nonzero")
	}
	d.Observe(0.35)
	if p := d.gPos / d.Threshold; p <= 0.4 || p >= 0.6 {
		t.Fatalf("pressure = %g, want ≈ 0.5", p)
	}
}

func TestDirectionString(t *testing.T) {
	if None.String() != "none" || Up.String() != "up" || DownShift.String() != "down" || Direction(9).String() != "unknown" {
		t.Fatal("Direction.String mismatch")
	}
}
