package cluster

import (
	"testing"
	"time"
)

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	b := &Breaker{Threshold: 3, Cooldown: time.Minute, Now: func() time.Time { return now }}

	if allowed, _ := b.Allow(); !allowed {
		t.Fatal("closed breaker rejected a call")
	}
	// Two failures keep it closed; the third opens it.
	if b.Failure() || b.Failure() {
		t.Fatal("breaker opened before the threshold")
	}
	if !b.Failure() {
		t.Fatal("threshold failure did not open the breaker")
	}
	if !b.Degraded() {
		t.Fatal("open breaker not degraded")
	}
	if allowed, _ := b.Allow(); allowed {
		t.Fatal("open breaker admitted a call inside the cooldown")
	}
	// Cooldown elapses: exactly one half-open probe is admitted.
	now = now.Add(2 * time.Minute)
	allowed, probe := b.Allow()
	if !allowed || !probe {
		t.Fatalf("post-cooldown Allow = %v, %v; want probe", allowed, probe)
	}
	if allowed, _ := b.Allow(); allowed {
		t.Fatal("second caller admitted while the probe is in flight")
	}
	// The probe fails: re-open, full cooldown again.
	if !b.Failure() {
		t.Fatal("half-open failure did not re-open")
	}
	if allowed, _ := b.Allow(); allowed {
		t.Fatal("re-opened breaker admitted a call")
	}
	// Next probe succeeds: closed, and a success resets the count.
	now = now.Add(2 * time.Minute)
	if allowed, probe := b.Allow(); !allowed || !probe {
		t.Fatal("second probe not admitted")
	}
	b.Success()
	if b.Degraded() {
		t.Fatal("closed breaker reports degraded")
	}
	if b.Failure() {
		t.Fatal("failure count survived the success")
	}
}
