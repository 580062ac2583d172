package ccba

import (
	"bytes"
	"testing"
	"testing/quick"

	"ccba/internal/aba"
	"ccba/internal/acs"
	"ccba/internal/brb"
	"ccba/internal/broadcast"
	"ccba/internal/chenmicali"
	"ccba/internal/committee"
	"ccba/internal/core"
	"ccba/internal/dolevstrong"
	"ccba/internal/netsim"
	"ccba/internal/phaseking"
	"ccba/internal/quadratic"
	"ccba/internal/transport"
	"ccba/internal/types"
	"ccba/internal/wire"
)

// Every protocol decoder must treat arbitrary bytes as data, never as a
// crash: malformed input yields an error, not a panic. Messages cross trust
// boundaries in a real deployment, so this is a load-bearing property.
func TestDecodersNeverPanic(t *testing.T) {
	decoders := map[string]func([]byte) (wire.Message, error){
		"core":        core.Decode,
		"quadratic":   quadratic.Decode,
		"phaseking":   phaseking.Decode,
		"chenmicali":  chenmicali.Decode,
		"dolevstrong": dolevstrong.Decode,
		"committee":   committee.Decode,
		"broadcast":   broadcast.Decode,
		"brb":         brb.Decode,
		"aba":         aba.Decode,
		"acs":         acs.Decode,
	}
	for name, decode := range decoders {
		decode := decode
		t.Run(name, func(t *testing.T) {
			f := func(buf []byte) bool {
				// Must return without panicking; error vs message both fine.
				_, _ = decode(buf)
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
				t.Fatal(err)
			}
			// Structured prefixes with garbage tails exercise deeper paths
			// than uniform noise.
			for kind := byte(0); kind < 8; kind++ {
				for size := 0; size < 64; size += 7 {
					buf := make([]byte, size+1)
					buf[0] = kind
					for i := 1; i < len(buf); i++ {
						buf[i] = byte(i * 31)
					}
					_, _ = decode(buf)
				}
			}
		})
	}
}

// deliveryProbe records the messages one node receives through a runtime.
type deliveryProbe struct {
	send   []netsim.Send
	rounds int
	got    []wire.Message
	halted bool
}

func (p *deliveryProbe) Step(round int, delivered []netsim.Delivered) []netsim.Send {
	for _, d := range delivered {
		p.got = append(p.got, d.Msg)
	}
	if round >= p.rounds {
		p.halted = true
		return nil
	}
	if round == 0 {
		return p.send
	}
	return nil
}

func (p *deliveryProbe) Output() (types.Bit, bool) { return types.Zero, false }
func (p *deliveryProbe) Halted() bool              { return p.halted }

// Messages routed through the scheduled-delivery envelope path (Δ > 1
// network models) must round-trip exactly: every delivered message
// re-marshals to the bytes of the one sent, and the honest-byte metrics
// equal Σ wire.Size over the sends — Size() staying exact is what keeps the
// communication-complexity accounting trustworthy once envelopes outlive
// their send round. Driven by quick with arbitrary certificate/eligibility
// payloads.
func TestScheduledDeliveryPreservesEncoding(t *testing.T) {
	const n, delta = 3, 3
	f := func(elig, leaderElig []byte, iter uint32, seedByte uint8) bool {
		sent := []wire.Message{
			core.VoteMsg{Iter: iter, B: One, Elig: elig, Leader: 2, LeaderElig: leaderElig},
			quadratic.VoteMsg{Iter: iter, B: Zero, Sig: leaderElig, LeaderSig: elig},
			chenmicali.AckMsg{Epoch: iter, B: One, Elig: elig, Sig: leaderElig},
		}
		var seed [32]byte
		seed[0] = seedByte
		probes := make([]*deliveryProbe, n)
		nodes := make([]netsim.Node, n)
		for i := range nodes {
			probes[i] = &deliveryProbe{rounds: delta + 1}
			nodes[i] = probes[i]
		}
		probes[0].send = []netsim.Send{
			netsim.Multicast(sent[0]),
			netsim.Unicast(1, sent[1]),
			netsim.Unicast(1, sent[2]),
		}
		rt, err := netsim.NewRuntime(netsim.Config{
			N: n, F: 0, MaxRounds: delta + 3,
			Net: netsim.Faults{Delta: delta, Spread: netsim.SpreadJitter, Key: netsim.FoldSeed(seed)},
		}, nodes, nil)
		if err != nil {
			t.Fatal(err)
		}
		res := rt.Run()

		wantBytes := 0
		for _, m := range sent {
			wantBytes += wire.Size(m)
		}
		// One multicast (counted once in multicast bytes) + two unicasts.
		if res.Metrics.HonestMulticastBytes != netsim.Count(wire.Size(sent[0])) {
			t.Fatalf("multicast bytes %d, want %d", res.Metrics.HonestMulticastBytes, wire.Size(sent[0]))
		}
		if got := res.Metrics.HonestMessageBytes; got != netsim.Count(n*wire.Size(sent[0])+wire.Size(sent[1])+wire.Size(sent[2])) {
			t.Fatalf("classical bytes %d for sends totalling %d", got, wantBytes)
		}
		// Node 1 received all three messages (in some schedule order); each
		// must re-marshal to its canonical bytes and report an exact Size.
		if len(probes[1].got) != len(sent) {
			t.Fatalf("node 1 received %d messages, want %d", len(probes[1].got), len(sent))
		}
		for _, m := range probes[1].got {
			if m.Size() != len(m.Encode(nil)) {
				t.Fatalf("delivered %T: Size()=%d but encoding is %d bytes", m, m.Size(), len(m.Encode(nil)))
			}
			matched := false
			for _, s := range sent {
				if bytes.Equal(wire.Marshal(m), wire.Marshal(s)) {
					matched = true
					break
				}
			}
			if !matched {
				t.Fatalf("delivered %T does not round-trip any sent message", m)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Decoded messages that parse successfully must re-encode to the same bytes
// (canonical encoding), for every protocol's happy path.
func TestDecodeEncodeCanonical(t *testing.T) {
	samples := []wire.Message{
		core.VoteMsg{Iter: 5, B: One, Elig: []byte{1, 2}, Leader: 9, LeaderElig: []byte{3}},
		quadratic.VoteMsg{Iter: 5, B: Zero, Sig: []byte{4}, LeaderSig: []byte{5}},
		phaseking.AckMsg{Epoch: 2, B: One, Elig: []byte{6}},
		chenmicali.AckMsg{Epoch: 2, B: Zero, Elig: []byte{7}, Sig: []byte{8}},
		committee.EchoMsg{B: One},
		broadcast.InputMsg{B: Zero},
		brb.SendMsg{Payload: []byte{9, 8}},
		aba.CoinMsg{Round: 3, Proof: []byte{1, 2, 3}},
		acs.WrapMsg{Slot: 2, Part: acs.PartABA, Inner: aba.BValMsg{Round: 1, B: One}},
	}
	decoders := []func([]byte) (wire.Message, error){
		core.Decode, quadratic.Decode, phaseking.Decode,
		chenmicali.Decode, committee.Decode, broadcast.Decode,
		brb.Decode, aba.Decode, acs.Decode,
	}
	for i, msg := range samples {
		buf := wire.Marshal(msg)
		dec, err := decoders[i](buf)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if got := wire.Marshal(dec); string(got) != string(buf) {
			t.Fatalf("sample %d not canonical: % x vs % x", i, got, buf)
		}
	}
}

// The TCP transport's length-prefixed frame decoder faces raw network
// bytes, so it must treat arbitrary input as data: parse exactly one frame
// or fail cleanly — no panic, no over-read, no unbounded allocation from a
// hostile length prefix.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(transport.AppendFrame(nil, []byte("payload")))
	f.Add(transport.AppendFrame(nil, wire.Marshal(core.VoteMsg{Iter: 3, B: One})))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}) // hostile length prefix
	f.Add([]byte{0, 0, 0, 9, 1, 2, 3})             // truncated body
	f.Fuzz(func(t *testing.T, buf []byte) {
		payload, rest, err := transport.ParseFrame(buf)
		if err != nil {
			// Failed parses must not consume input.
			if len(rest) != len(buf) {
				t.Fatalf("failed parse consumed %d bytes", len(buf)-len(rest))
			}
			return
		}
		// A successful parse consumes exactly prefix+payload and no more.
		if len(payload) > transport.MaxFrame {
			t.Fatalf("oversized payload accepted: %d bytes", len(payload))
		}
		if 4+len(payload)+len(rest) != len(buf) {
			t.Fatalf("over-read: %d payload + %d rest from %d input", len(payload), len(rest), len(buf))
		}
		// Re-framing the payload reproduces the consumed bytes.
		if reframed := transport.AppendFrame(nil, payload); !bytes.Equal(reframed, buf[:4+len(payload)]) {
			t.Fatalf("frame not canonical")
		}
	})
}

// Cluster envelopes also cross the trust boundary; their decoder gets the
// same treatment, plus the canonical round-trip property on valid input.
func FuzzEnvelopeDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(transport.AppendEnvelope(nil, transport.Envelope{Kind: transport.EnvSync, From: 3, Round: 7, Halted: true}))
	f.Add(transport.AppendEnvelope(nil, transport.Envelope{
		Kind: transport.EnvData, From: 1, Round: 2, Seq: 5,
		Payload: wire.Marshal(core.VoteMsg{Iter: 3, B: One, Elig: []byte{9}}),
	}))
	f.Fuzz(func(t *testing.T, buf []byte) {
		env, err := transport.DecodeEnvelope(buf)
		if err != nil {
			return
		}
		if !bytes.Equal(transport.AppendEnvelope(nil, env), buf) {
			t.Fatalf("envelope decode of % x not canonical", buf)
		}
	})
}

// The async-track decoders (BRB, ABA, and the slot-wrapping ACS envelope)
// face the same trust boundary as every other codec: arbitrary bytes must
// parse cleanly or fail with an error — no panic, no over-read. The first
// input byte selects the decoder so one corpus covers all three; a
// successful parse must be canonical (re-marshal reproduces the input
// exactly, so a decoder that silently ignored trailing bytes would fail
// here) and must report an exact Size().
func FuzzAsyncDecode(f *testing.F) {
	mark := func(sel byte, m wire.Message) []byte {
		return append([]byte{sel}, wire.Marshal(m)...)
	}
	f.Add([]byte{})
	f.Add(mark(0, brb.SendMsg{Payload: []byte("hi")}))
	f.Add(mark(0, brb.ReadyMsg{Payload: []byte("m")}))
	f.Add(mark(1, aba.BValMsg{Round: 1, B: One}))
	f.Add(mark(1, aba.CoinMsg{Round: 2, Proof: []byte("abc")}))
	f.Add(mark(1, aba.DoneMsg{B: Zero}))
	f.Add(mark(2, acs.WrapMsg{Slot: 2, Part: acs.PartABA, Inner: aba.BValMsg{Round: 1, B: One}}))
	f.Add(mark(2, acs.WrapMsg{Slot: 0, Part: acs.PartBRB, Inner: brb.EchoMsg{Payload: []byte{6}}}))
	f.Add([]byte{1, 3, 0, 0})                      // truncated ABA coin
	f.Add([]byte{2, 1, 0, 0, 0, 0, 9})             // ACS wrap with unknown part
	f.Add([]byte{0, 1, 0xFF, 0xFF, 0xFF, 0xFF, 1}) // hostile BRB length prefix
	decoders := []func([]byte) (wire.Message, error){brb.Decode, aba.Decode, acs.Decode}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		buf := data[1:]
		m, err := decoders[int(data[0])%len(decoders)](buf)
		if err != nil {
			return
		}
		enc := m.Encode(nil)
		if m.Size() != len(enc) {
			t.Fatalf("%T: Size()=%d but encoding is %d bytes", m, m.Size(), len(enc))
		}
		if !bytes.Equal(wire.Marshal(m), buf) {
			t.Fatalf("%T decode of % x not canonical: re-marshals to % x", m, buf, wire.Marshal(m))
		}
	})
}

// The hello handshake is the one frame a TCP endpoint reads before it knows
// who is talking, so its decoder faces the rawest input of all: arbitrary
// bytes must yield a descriptive error, never a panic, and only a
// well-formed hello naming an in-range peer may pass.
func FuzzHelloDecode(f *testing.F) {
	f.Add([]byte{}, uint16(4))
	f.Add(transport.HelloFrame(2, 4)[4:], uint16(4)) // valid hello (frame prefix stripped)
	f.Add(transport.HelloFrame(2, 4)[4:], uint16(3)) // size mismatch
	f.Add(transport.HelloFrame(9, 4)[4:], uint16(4)) // out-of-range dialer
	f.Add(transport.AppendEnvelope(nil, transport.Envelope{Kind: transport.EnvData, From: 1}), uint16(4))
	f.Add(transport.AppendEnvelope(nil, transport.Envelope{Kind: transport.EnvHello, From: 1, Payload: []byte("wrong magic....")}), uint16(4))
	f.Fuzz(func(t *testing.T, buf []byte, n uint16) {
		if n == 0 {
			n = 1
		}
		from, err := transport.DecodeHello(buf, int(n))
		if err != nil {
			if err.Error() == "" {
				t.Fatal("rejection without a reason")
			}
			return
		}
		if int(from) < 0 || int(from) >= int(n) {
			t.Fatalf("accepted hello from out-of-range node %d (n=%d)", from, n)
		}
		// An accepted hello is canonical: the dialer's own frame for the
		// same identity reproduces it.
		if !bytes.Equal(transport.HelloFrame(from, int(n))[4:], buf) {
			t.Fatalf("accepted non-canonical hello % x", buf)
		}
	})
}

// Exact-size frames of every protocol's messages round-trip through the
// frame + envelope layers byte for byte — the property the TCP transport's
// metrics and golden equivalence rest on.
func TestFrameEnvelopeRoundTripProtocolMessages(t *testing.T) {
	msgs := []wire.Message{
		core.VoteMsg{Iter: 5, B: One, Elig: []byte{1, 2}, Leader: 9, LeaderElig: []byte{3}},
		quadratic.VoteMsg{Iter: 5, B: Zero, Sig: []byte{4}, LeaderSig: []byte{5}},
		phaseking.AckMsg{Epoch: 2, B: One, Elig: []byte{6}},
		chenmicali.AckMsg{Epoch: 2, B: Zero, Elig: []byte{7}, Sig: []byte{8}},
		committee.EchoMsg{B: One},
		broadcast.InputMsg{B: Zero},
		brb.ReadyMsg{Payload: []byte{7}},
		aba.DoneMsg{B: One},
		acs.WrapMsg{Slot: 5, Part: acs.PartBRB, Inner: brb.EchoMsg{Payload: []byte{6}}},
	}
	var stream []byte
	for i, m := range msgs {
		env := transport.Envelope{
			Kind: transport.EnvData, From: types.NodeID(i), Round: uint32(i), Seq: uint32(i),
			Payload: wire.Marshal(m),
		}
		stream = transport.AppendFrame(stream, transport.AppendEnvelope(nil, env))
	}
	for i, m := range msgs {
		var frame []byte
		var err error
		frame, stream, err = transport.ParseFrame(stream)
		if err != nil {
			t.Fatal(err)
		}
		env, err := transport.DecodeEnvelope(frame)
		if err != nil {
			t.Fatal(err)
		}
		if env.From != types.NodeID(i) || !bytes.Equal(env.Payload, wire.Marshal(m)) {
			t.Fatalf("message %d did not survive framing", i)
		}
	}
	if len(stream) != 0 {
		t.Fatalf("%d trailing bytes", len(stream))
	}
}
