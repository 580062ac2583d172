package transport

import (
	"net" // want `chaos code imports net`
	"time"

	"ccba/internal/netsim"
	"ccba/internal/types"
)

type chaosEndpoint struct {
	inner Transport
	key   uint64
	raw   chan Envelope
}

// Send flips the drop coin itself, bypassing the schedule, and reaches for
// every forbidden fault mechanism.
func (c *chaosEndpoint) Send(to types.NodeID, env Envelope) error {
	if netsim.LinkDrop(c.key, int(env.Round), types.NodeID(0), to, 0.5) { // want `call to netsim\.LinkDrop outside netsim`
		return nil
	}
	deadline := time.Now() // want `chaos code reads the wall clock via time\.Now`
	_ = deadline
	c.raw <- env // want `raw channel send in chaos code`
	close(c.raw) // want `chaos code closes a channel`
	if conn, err := net.Dial("tcp", "addr"); err == nil {
		conn.Close()
	}
	return c.inner.Send(to, env)
}

// delayed schedules with a timer: scheduling is not a wall-clock read.
func delayed(d time.Duration, f func()) *time.Timer {
	return time.AfterFunc(d, f)
}
