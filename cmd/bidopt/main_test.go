package main

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// TestRun runs the command in-process three ways: a small valid run on
// one day of the low preset, a flag it does not register, and no
// arguments (the documented default landscape), plus a zone outside the
// preset's.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-preset", "low", "-zone", "2", "-days", "1", "-rate", "0.5"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1 days of history") || !strings.Contains(out.String(), "rate >= 0.50") {
		t.Fatalf("valid run printed %q", out.String())
	}

	var stderr bytes.Buffer
	out.Reset()
	if err := run([]string{"-nope"}, &out, &stderr); !errors.Is(err, errUsage) || out.Len() > 0 || !strings.Contains(stderr.String(), "-nope") {
		t.Fatalf("bad flag: err %v after %d bytes of output, stderr %q; want the usage error before any output", err, out.Len(), stderr.String())
	}

	out.Reset()
	if err := run(nil, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "zone us-east-1a, 4 days of history") || !strings.Contains(out.String(), "$/work-h") {
		t.Fatalf("no arguments printed %q, want the default landscape", out.String())
	}

	out.Reset()
	if err := run([]string{"-zone", "7"}, &out, io.Discard); err == nil || out.Len() > 0 {
		t.Fatalf("zone 7: err %v after %d bytes of output, want a refusal before any", err, out.Len())
	}
}
