// Command cluster runs a protocol as a live cluster of concurrent node
// processes over a pluggable transport, instead of inside the lockstep
// simulator — same protocols, same scenario registry, same report JSON as
// cmd/ba, so the two can be diffed for the same seed and configuration.
//
// Transports:
//
//	-transport chan    n nodes in this process, one goroutine each, over
//	                   in-process channels (the default)
//	-transport tcp     a localhost (or cross-host) TCP mesh with
//	                   length-prefixed framing; all n nodes in this process
//	                   by default, or a single node joining a mesh with
//	                   -node and -peers
//
// Examples:
//
//	cluster -n 200 -f 60 -lambda 40
//	cluster -transport chan -n 32 -f 9 -json
//	cluster -transport tcp -n 4 -f 1
//	cluster -transport tcp -crypto real -node 0 -peers 127.0.0.1:7701,127.0.0.1:7702,127.0.0.1:7703,127.0.0.1:7704
//	cluster -scenario quadratic-n49
//	cluster -scenario core-omission-n200 -json
//	cluster -scenario core-chaos-n32 -json
//	cluster -scenarios
//	cluster -n 24 -f 7 -lambda 8 -net chaos -omission-rate 0.25 -json
//	cluster -n 24 -f 7 -lambda 8 -net chaos -crash-from 2 -crash-rounds 4
//	cluster -n 16 -f 4 -net chaos -delta 2 -omission-rate 0.2 -partition-rounds 4
//
// The network flags (-net, -delta, -omission-rate, -faulty,
// -partition-rounds, -crash-from, -crash-rounds) mean what they mean to
// cmd/ba: they declare the config's network model, and every node applies
// its schedule in its own round loop — a frame the model delays d rounds
// is delivered d rounds after it was sent, drops and crash windows hit
// only seed-chosen faulty senders (DESIGN.md §7). On the all-ack barrier
// (no -round-interval) a run prints the same bytes as cmd/ba under every
// model and Δ, -trace included; the E14 experiment cross-validates the two
// runtimes. -round-interval arms a soft per-round deadline; when a node
// advances, and so the run, then depends on timing.
//
// The multi-process form (-node) runs the Appendix D compiler's real
// crypto for the committee-sampled protocols: the hybrid world's F_mine
// trusted party cannot be split across processes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ccba"
	"ccba/internal/cli"
	"ccba/internal/cluster"
	"ccba/internal/obs"
	"ccba/internal/transport"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cluster:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	var (
		transportName, peers, obsAddr          string
		node                                   int
		roundTimeout, roundInterval, obsLinger time.Duration
	)
	r, err := cli.Parse("cluster", args, out, func(fs *flag.FlagSet, sc *ccba.Scenario) {
		fs.StringVar(&transportName, "transport", "chan", "transport: chan (in-process channels) or tcp (length-prefixed framing)")
		fs.IntVar(&node, "node", -1, "run only this node index over TCP, joining the -peers mesh (-1 = all nodes in this process)")
		fs.StringVar(&peers, "peers", "", "comma-separated list of all node addresses in node order (tcp)")
		fs.DurationVar(&roundTimeout, "round-timeout", 30*time.Second, "per-round barrier timeout for tcp (chan runs never need one)")
		fs.StringVar(&obsAddr, "obs-addr", "", "serve live telemetry on this host:port — /debug/vars (expvar, the \"ccba\" var) and /debug/pprof; port 0 picks a free one")
		fs.DurationVar(&obsLinger, "obs-linger", 0, "keep the -obs-addr endpoint alive this long after the run, so scrapers (CI smoke jobs) can read final counters")
		fs.DurationVar(&roundInterval, "round-interval", 0, "soft per-round deadline: a node advances once all n sync markers are in or the interval has elapsed (0 = pure all-ack barrier)")
	})
	if r == nil {
		return err
	}
	if r.Adversary != "" && r.Adversary != "none" {
		return fmt.Errorf("scenario %q runs adversary %q; live clusters execute honest protocols only (use cmd/ba)", r.Name, r.Adversary)
	}
	cfg := r.Config

	opts := cluster.Options{RoundInterval: roundInterval}
	if transportName == "tcp" {
		opts.RoundTimeout = roundTimeout
	}
	var rec *ccba.TraceRecorder
	if r.Trace != "" {
		rec = ccba.NewTraceRecorder(0)
		opts.Tracer = rec
	}
	if obsAddr != "" {
		tel := obs.NewTelemetry(cfg.N)
		srv, err := obs.Serve(obsAddr, tel)
		if err != nil {
			return fmt.Errorf("obs endpoint: %w", err)
		}
		defer srv.Close()
		opts.Telemetry = tel
		fmt.Fprintf(os.Stderr, "obs: serving /debug/vars and /debug/pprof/ on %s\n", srv.Addr())
	}

	var rep *cluster.Report
	switch {
	case transportName == "chan":
		if node >= 0 {
			return fmt.Errorf("-node needs -transport tcp; the chan transport always hosts the whole cluster")
		}
		var netw *transport.ChanNetwork
		netw, err = transport.NewChanNetwork(cfg.N)
		if err != nil {
			return err
		}
		defer netw.Close()
		rep, err = cluster.Run(ctx, cfg, netw, opts)

	case transportName == "tcp" && node < 0:
		addrs := transport.LoopbackAddrs(cfg.N)
		if peers != "" {
			if addrs, err = splitPeers(peers, cfg.N); err != nil {
				return err
			}
		}
		var netw *transport.TCPNetwork
		netw, err = transport.NewTCPNetwork(ctx, addrs, transport.TCPOptions{})
		if err != nil {
			return err
		}
		defer netw.Close()
		rep, err = cluster.Run(ctx, cfg, netw, opts)

	case transportName == "tcp":
		if peers == "" {
			return fmt.Errorf("-node %d needs -peers with all %d node addresses in node order", node, cfg.N)
		}
		var addrs []string
		if addrs, err = splitPeers(peers, cfg.N); err != nil {
			return err
		}
		var ep *transport.TCPEndpoint
		ep, err = transport.DialTCP(ctx, ccba.NodeID(node), addrs, transport.TCPOptions{})
		if err != nil {
			return err
		}
		defer ep.Close()
		rep, err = cluster.RunNode(ctx, cfg, ep, opts)

	default:
		return fmt.Errorf("unknown transport %q (want chan or tcp)", transportName)
	}
	if err != nil {
		return err
	}
	if rec != nil {
		if err := cli.WriteTrace(r.Trace, rec); err != nil {
			return err
		}
	}
	if obsLinger > 0 {
		// Hold the telemetry endpoint open so an external scraper can read
		// the run's final counters and take a pprof profile.
		time.Sleep(obsLinger)
	}
	return r.Report(out, rep.Report, transportName)
}

// splitPeers parses the -peers list and checks it covers the cluster.
func splitPeers(peers string, n int) ([]string, error) {
	addrs := strings.Split(peers, ",")
	if len(addrs) != n {
		return nil, fmt.Errorf("-peers lists %d addresses for a cluster of %d", len(addrs), n)
	}
	return addrs, nil
}
