package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun runs the command in-process three ways: a small valid run
// (statistics to stdout, then a JSON trace to -o read back by -in), a
// flag it does not register, and no arguments (the default CSV trace).
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-preset", "high", "-seed", "7", "-samples", "48", "-stats"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "zones: 3, samples/zone: 48") {
		t.Fatalf("-stats printed %q", out.String())
	}
	path := filepath.Join(t.TempDir(), "high.json")
	if err := run([]string{"-preset", "high", "-samples", "48", "-format", "json", "-o", path}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || len(b) == 0 {
		t.Fatalf("-o wrote %d bytes, err %v", len(b), err)
	}
	out.Reset()
	if err := run([]string{"-in", path, "-format", "json", "-stats"}, &out, io.Discard); err != nil || !strings.Contains(out.String(), "samples/zone: 48") {
		t.Fatalf("-in read back %q, err %v", out.String(), err)
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
	if !strings.HasPrefix(out.String(), "time,zone,price\n") {
		t.Fatalf("no arguments printed %.40q, want the default CSV trace", out.String())
	}
}
