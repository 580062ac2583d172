package phaseking

import (
	"fmt"
	"testing"

	"ccba/internal/fmine"
	"ccba/internal/netsim"
	"ccba/internal/types"
)

// forgedAcker statically corrupts two nodes and, in epoch 0's ACK round,
// injects an ACK for One from each: node 1's with a forged ticket, node 2's
// genuine. With unicast set it sends one copy per honest node instead of a
// multicast, so each recipient checks the ticket itself.
type forgedAcker struct {
	cfg     Config
	unicast bool
}

func (a *forgedAcker) Power() netsim.Power { return netsim.PowerStatic }

func (a *forgedAcker) Setup(ctx *netsim.Ctx) {
	for _, id := range []types.NodeID{1, 2} {
		if _, err := ctx.Corrupt(id); err != nil {
			panic(err)
		}
	}
}

func (a *forgedAcker) Round(ctx *netsim.Ctx) {
	if ctx.Round() != 1 {
		return
	}
	for _, from := range []types.NodeID{1, 2} {
		tag := fmine.Tag{Domain: Domain, Type: TagAck, Iter: 0, Bit: types.One}
		proof, ok := a.cfg.Suite.Miner(from).Mine(tag)
		if !ok {
			panic("λ = n miner failed")
		}
		if from == 1 {
			proof = append([]byte(nil), proof...)
			proof[0] ^= 1
		}
		msg := AckMsg{Epoch: 0, B: types.One, Elig: proof}
		if !a.unicast {
			if err := ctx.Inject(from, types.Broadcast, msg); err != nil {
				panic(err)
			}
			continue
		}
		for j := 3; j < ctx.N(); j++ {
			if err := ctx.Inject(from, types.NodeID(j), msg); err != nil {
				panic(err)
			}
		}
	}
}

// TestScreenRejectsForgedAck requires every honest node of the sampled
// variant to count the genuine injected ACK and ignore the forged one,
// whether it arrives as a shared delivery or a per-recipient copy, and with
// the engine's screen set or nil.
func TestScreenRejectsForgedAck(t *testing.T) {
	for _, unicast := range []bool{false, true} {
		for _, screened := range []bool{true, false} {
			t.Run(fmt.Sprintf("unicast=%v/screened=%v", unicast, screened), func(t *testing.T) {
				cfg := sampledConfig(30, 3, 30, 5) // λ = n: every ACK ticket mines
				nodes, err := NewNodes(cfg, constInputs(cfg.N, types.Zero))
				if err != nil {
					t.Fatal(err)
				}
				// Rounds 0–2: epoch 0's proposals, its ACKs, and their tally.
				ncfg := netsim.Config{N: cfg.N, F: 2, MaxRounds: 3}
				if screened {
					ncfg.Screen = Screen(cfg.Suite.Verifier())
				}
				rt, err := netsim.NewRuntime(ncfg, nodes, &forgedAcker{cfg: cfg, unicast: unicast})
				if err != nil {
					t.Fatal(err)
				}
				rt.Run()
				for i := 3; i < cfg.N; i++ {
					acks := &nodes[i].(*Node).acks[types.One]
					if !acks.Contains(2) {
						t.Fatalf("node %d did not count the genuine ACK", i)
					}
					if acks.Contains(1) {
						t.Errorf("node %d counted an ACK with a forged ticket", i)
					}
				}
			})
		}
	}
}
