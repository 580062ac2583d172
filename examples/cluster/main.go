// Live cluster: run the paper's subquadratic Byzantine Agreement protocol
// as 64 concurrent node goroutines over the in-process channel transport,
// cross-check the result against the lockstep simulator, and then run a
// 4-node agreement over a real localhost TCP mesh with the Appendix D
// real-crypto compiler.
//
//	go run ./examples/cluster
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"ccba"
	"ccba/internal/cluster"
	"ccba/internal/transport"
)

func main() {
	ctx := context.Background()

	// 1. A 64-node core agreement, live: one goroutine per node, messages
	// crossing the transport as canonical wire bytes, rounds synchronized
	// by per-round barriers instead of a lockstep loop.
	cfg := ccba.Config{Protocol: ccba.Core, N: 64, F: 19, Lambda: 14}
	cfg.Seed[0] = 42

	chanNet, err := transport.NewChanNetwork(cfg.N)
	if err != nil {
		log.Fatal(err)
	}
	defer chanNet.Close()
	live, err := cluster.Run(ctx, cfg, chanNet, cluster.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("live chan cluster:  rounds=%d multicasts=%d ok=%v\n",
		live.Rounds, live.Result.Metrics.HonestMulticasts, live.Ok())

	// The simulator is the oracle: the same config and seed must produce
	// the same decisions and the same communication accounting.
	sim, err := ccba.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lockstep simulator: rounds=%d multicasts=%d ok=%v\n",
		sim.Rounds, sim.Result.Metrics.HonestMulticasts, sim.Ok())
	if live.Rounds != sim.Rounds || live.Result.Metrics != sim.Result.Metrics {
		log.Fatal("live run diverged from the simulator")
	}
	for i := range sim.Outputs {
		if live.Outputs[i] != sim.Outputs[i] || live.Decided[i] != sim.Decided[i] {
			log.Fatalf("node %d decided differently live vs simulated", i)
		}
	}
	fmt.Println("bit-for-bit agreement on every protocol-visible fact")

	// Per-node accounting comes free in a live run: each node tallies its
	// own sends. Summed, the tallies equal the simulator's aggregate.
	busiest := 0
	for i, m := range live.PerNode {
		if m.HonestMulticasts > live.PerNode[busiest].HonestMulticasts {
			busiest = i
		}
	}
	fmt.Printf("busiest node: %d with %d multicasts (committees stay small: λ=%d)\n\n",
		busiest, live.PerNode[busiest].HonestMulticasts, cfg.Lambda)

	// 2. The same protocol over real TCP sockets. The hybrid world's F_mine
	// trusted party lives inside one process, so multi-process meshes use
	// the real-crypto compiler (Ed25519 VRF over the seed-derived PKI) —
	// here the whole mesh runs in-process, but over genuine localhost
	// connections with length-prefixed framing.
	tcpCfg := ccba.Config{Protocol: ccba.Core, N: 4, F: 1, Lambda: 3, Crypto: ccba.Real}
	tcpCfg.Seed[0] = 42
	tcpNet, err := transport.NewTCPNetwork(ctx, transport.LoopbackAddrs(tcpCfg.N), transport.TCPOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer tcpNet.Close()
	tcpRep, err := cluster.Run(ctx, tcpCfg, tcpNet, cluster.Options{RoundTimeout: 30 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tcp mesh (n=%d, real crypto): rounds=%d ok=%v\n", tcpCfg.N, tcpRep.Rounds, tcpRep.Ok())
}
