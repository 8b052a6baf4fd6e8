package sim

// This file implements machine pooling: the Adaptive scheme's
// permutation evaluator replays thousands of short estimation windows
// per experiment, and building a fresh Machine for each replay
// dominated its allocation profile. A sync.Pool recycles machines —
// zone slices, billing ledgers, event scratch buffers and RNGs — across
// replays; Machine.Reset guarantees a recycled machine reproduces a
// fresh one bit-for-bit.

import "sync"

// machinePool recycles Machines across runs. Pooled machines keep their
// internal buffers (zone state, ledger entries, event scratch, RNG) so
// a Reset-and-rerun cycle is allocation-free in the steady state.
var machinePool = sync.Pool{New: func() any { return new(Machine) }}

// AcquireMachine returns a pooled machine reset to run cfg under strat.
// It is safe for concurrent use; each caller owns the returned machine
// exclusively until ReleaseMachine. The machine's Result and Env alias
// its internal buffers, so consume (or clone) them before releasing.
func AcquireMachine(cfg Config, strat Strategy) (*Machine, error) {
	m := machinePool.Get().(*Machine)
	if err := m.Reset(cfg, strat); err != nil {
		machinePool.Put(m)
		return nil, err
	}
	return m, nil
}

// ReleaseMachine returns a machine obtained from AcquireMachine to the
// pool. The machine, its Env and its Result must not be used afterwards.
// The machine drops its strategy, specs and configuration, so the pool
// keeps buffers but never a finished run's policy state or traces.
func ReleaseMachine(m *Machine) {
	if m == nil {
		return
	}
	m.strat, m.pendingSpec, m.specBuf, m.result = nil, nil, RunSpec{}, nil
	if m.env != nil {
		m.env.release()
	}
	machinePool.Put(m)
}

// RunPooled executes one run on a pooled machine and hands the live
// result to consume before the machine returns to the pool. The
// *Result (including its Ledger and Timeline) is only valid inside
// consume; copy anything that must outlive the call. This is the
// allocation-lean form of Run for callers that only extract scalars,
// such as the Adaptive permutation evaluator.
func RunPooled(cfg Config, strat Strategy, consume func(*Result)) error {
	m, err := AcquireMachine(cfg, strat)
	if err != nil {
		return err
	}
	defer ReleaseMachine(m)
	res, err := m.runToCompletion()
	if err != nil {
		return err
	}
	consume(res)
	return nil
}
