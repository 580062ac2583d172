package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccba"
	"ccba/internal/cluster"
	"ccba/internal/obs"
	"ccba/internal/transport"
)

// TestTraceRefusesTruncation: a recorder too small for the run holds only
// its first events, so -trace fails with obs.ErrTraceFull and the emitted
// and held counts on the simulator and on a live run alike, and leaves no
// file behind; one large enough writes every event.
func TestTraceRefusesTruncation(t *testing.T) {
	cfg := ccba.Config{Protocol: ccba.Core, N: 10, F: 3, Lambda: 6}
	for _, tc := range []struct {
		name string
		run  func(rec *ccba.TraceRecorder) error
	}{
		{"sim", func(rec *ccba.TraceRecorder) error {
			c := cfg
			c.Tracer = rec
			_, err := ccba.RunCtx(context.Background(), c)
			return err
		}},
		{"chan", func(rec *ccba.TraceRecorder) error {
			netw, err := transport.NewChanNetwork(cfg.N)
			if err != nil {
				return err
			}
			defer netw.Close()
			_, err = cluster.Run(context.Background(), cfg, netw, cluster.Options{Tracer: rec})
			return err
		}},
	} {
		run := tc.run
		t.Run(tc.name, func(t *testing.T) {
			full := ccba.NewTraceRecorder(0)
			if err := run(full); err != nil {
				t.Fatal(err)
			}
			events := len(full.Events())
			path := filepath.Join(t.TempDir(), "t.jsonl")
			if err := writeTrace(path, full); err != nil {
				t.Fatalf("a recorder holding all %d events: %v", events, err)
			}
			if buf, err := os.ReadFile(path); err != nil || strings.Count(string(buf), "\n") != events {
				t.Fatalf("trace file holds %d lines (%v), want %d", strings.Count(string(buf), "\n"), err, events)
			}

			const k = 64
			small := ccba.NewTraceRecorder(k)
			if err := run(small); err != nil {
				t.Fatal(err)
			}
			path = filepath.Join(t.TempDir(), "t.jsonl")
			err := writeTrace(path, small)
			if !errors.Is(err, obs.ErrTraceFull) || !strings.Contains(err.Error(), fmt.Sprintf("emitted %d events and the recorder holds its first %d", events, k)) {
				t.Fatalf("a %d-event recorder for a %d-event run: got %v, want ErrTraceFull with both counts", k, events, err)
			}
			if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("a truncated trace left a file behind: %v", err)
			}
		})
	}
}
