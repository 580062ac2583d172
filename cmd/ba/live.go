package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ccba"
	"ccba/internal/cluster"
	"ccba/internal/obs"
	"ccba/internal/transport"
)

// tcpRoundTimeout bounds how long a TCP node waits at one round barrier,
// so a dead peer fails the run instead of hanging it. The chan network
// needs none: its barrier can only stall if a node goroutine died, which
// cancels the run anyway.
const tcpRoundTimeout = 30 * time.Second

// runLive executes the invocation as a live cluster over the chan or TCP
// transport and reports it exactly as a simulated run is reported.
func runLive(ctx context.Context, inv *invocation, out io.Writer) error {
	if inv.Adversary != "none" {
		return fmt.Errorf("adversary %q: live clusters execute honest protocols only (use -transport sim)", inv.Adversary)
	}
	if inv.trials > 1 {
		return fmt.Errorf("-trials %d: a live cluster runs one execution (use -transport sim)", inv.trials)
	}
	var opts cluster.Options
	if inv.transport == "tcp" {
		opts.RoundTimeout = tcpRoundTimeout
	}
	var rec *ccba.TraceRecorder
	if inv.trace != "" {
		rec = ccba.NewTraceRecorder(0)
		opts.Tracer = rec
	}
	if inv.obsAddr != "" {
		tel := obs.NewTelemetry(inv.Config.N)
		srv, err := obs.Serve(inv.obsAddr, tel)
		if err != nil {
			return fmt.Errorf("obs endpoint: %w", err)
		}
		defer srv.Close()
		opts.Telemetry = tel
		fmt.Fprintf(os.Stderr, "obs: serving /debug/vars and /debug/pprof/ on %s\n", srv.Addr())
	}

	rep, err := runCluster(ctx, inv, opts)
	if err != nil {
		return err
	}
	if rec != nil {
		if err := writeTrace(inv.trace, rec); err != nil {
			return err
		}
	}
	if inv.obsLinger > 0 {
		// Hold the telemetry endpoint open so an external scraper can read
		// the run's final counters and take a pprof profile.
		time.Sleep(inv.obsLinger)
	}
	return inv.report(out, rep.Report)
}

// runCluster runs the config over the invocation's transport: every node
// in this process, or with -node just that one, joining the -peers mesh.
// A config the live runtime refuses is refused before any transport
// exists, so the refusal opens no socket.
func runCluster(ctx context.Context, inv *invocation, opts cluster.Options) (*cluster.Report, error) {
	cfg := inv.Config
	if inv.transport == "chan" {
		if err := cluster.Check(cfg, false); err != nil {
			return nil, err
		}
		netw, err := transport.NewChanNetwork(cfg.N)
		if err != nil {
			return nil, err
		}
		defer netw.Close()
		return cluster.Run(ctx, cfg, netw, opts)
	}
	if inv.node >= 0 && inv.peers == "" {
		return nil, fmt.Errorf("-node %d needs -peers with all %d node addresses in node order", inv.node, cfg.N)
	}
	addrs := transport.LoopbackAddrs(cfg.N)
	if inv.peers != "" {
		if addrs = strings.Split(inv.peers, ","); len(addrs) != cfg.N {
			return nil, fmt.Errorf("-peers lists %d addresses for a cluster of %d", len(addrs), cfg.N)
		}
	}
	if err := cluster.Check(cfg, inv.node >= 0); err != nil {
		return nil, err
	}
	if inv.node < 0 {
		netw, err := transport.NewTCPNetwork(ctx, addrs, transport.TCPOptions{})
		if err != nil {
			return nil, err
		}
		defer netw.Close()
		return cluster.Run(ctx, cfg, netw, opts)
	}
	ep, err := transport.DialTCP(ctx, ccba.NodeID(inv.node), addrs, transport.TCPOptions{})
	if err != nil {
		return nil, err
	}
	defer ep.Close()
	return cluster.RunNode(ctx, cfg, ep, opts)
}
