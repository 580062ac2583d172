package acs

import (
	"encoding/binary"
	"fmt"

	"ccba/internal/aba"
	"ccba/internal/brb"
	"ccba/internal/wire"
)

// KindWrap is the single ACS message kind: a slot-tagged sub-protocol
// message.
const KindWrap wire.Kind = 1

// Part discriminates which sub-protocol of a slot a wrapped message
// belongs to.
const (
	PartBRB uint8 = 1
	PartABA uint8 = 2
)

// WrapMsg routes one BRB or ABA message to its ACS slot. The inner message
// is embedded with its own kind tag, so the sub-protocol decoders parse it
// unchanged. Nodes send, decode and receive it as *WrapMsg.
type WrapMsg struct {
	Slot  uint32
	Part  uint8
	Inner wire.Message
}

// Kind implements wire.Message.
func (m WrapMsg) Kind() wire.Kind { return KindWrap }

// Encode implements wire.Message.
func (m WrapMsg) Encode(dst []byte) []byte {
	w := wire.Writer{Buf: dst}
	w.U32(m.Slot)
	w.U8(m.Part)
	w.U8(uint8(m.Inner.Kind()))
	return m.Inner.Encode(w.Buf)
}

// Size implements wire.Message.
func (m WrapMsg) Size() int { return 4 + 1 + 1 + m.Inner.Size() }

// wrapHeader is the encoded size of (slot, part) — what precedes the inner
// message's own kind tag.
const wrapHeader = 4 + 1

// Decode parses a marshalled ACS message (kind tag included).
func Decode(buf []byte) (wire.Message, error) {
	if len(buf) < 1+wrapHeader {
		return nil, fmt.Errorf("acs: %w", wire.ErrTruncated)
	}
	if wire.Kind(buf[0]) != KindWrap {
		return nil, fmt.Errorf("acs: %w: kind %d", wire.ErrMalformed, buf[0])
	}
	m := &WrapMsg{
		Slot: binary.BigEndian.Uint32(buf[1:5]),
		Part: buf[5],
	}
	var err error
	switch m.Part {
	case PartBRB:
		m.Inner, err = brb.Decode(buf[1+wrapHeader:])
	case PartABA:
		m.Inner, err = aba.Decode(buf[1+wrapHeader:])
	default:
		return nil, fmt.Errorf("acs: %w: part %d", wire.ErrMalformed, m.Part)
	}
	if err != nil {
		return nil, fmt.Errorf("acs: slot %d: %w", m.Slot, err)
	}
	return m, nil
}
