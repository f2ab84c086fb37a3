// Fixture: wire-message declarations exercising every wiretag rule.
package pax

import "paxq/internal/dist"

const (
	tagGood dist.MsgTag = iota + 1
	tagDup
	tagLonely
	tagNoReg
	tagOrphan // want `wire tag constant tagOrphan is declared but returned by no WireTag method`
)

const plain = 7

type Good struct{}

func (m *Good) WireTag() dist.MsgTag                  { return tagGood }
func (m *Good) AppendBinary(b []byte) []byte          { return b }
func (m *Good) DecodeBinary(b []byte) ([]byte, error) { return b, nil }

type DupA struct{}

func (m *DupA) WireTag() dist.MsgTag                  { return tagDup } // want `wire tag tagDup is returned by 2 message types \(DupA, DupB\): tags must be unique`
func (m *DupA) AppendBinary(b []byte) []byte          { return b }
func (m *DupA) DecodeBinary(b []byte) ([]byte, error) { return b, nil }

type DupB struct{}

func (m *DupB) WireTag() dist.MsgTag                  { return tagDup } // want `wire tag tagDup is returned by 2 message types \(DupA, DupB\): tags must be unique`
func (m *DupB) AppendBinary(b []byte) []byte          { return b }
func (m *DupB) DecodeBinary(b []byte) ([]byte, error) { return b, nil }

type Lonely struct{}

func (m *Lonely) WireTag() dist.MsgTag         { return tagLonely } // want `message Lonely has WireTag but an incomplete encode/decode pair \(AppendBinary=true, DecodeBinary=false\)`
func (m *Lonely) AppendBinary(b []byte) []byte { return b }

type NoReg struct{}

func (m *NoReg) WireTag() dist.MsgTag                  { return tagNoReg } // want `message NoReg is never registered with dist.RegisterBinary in an init function`
func (m *NoReg) AppendBinary(b []byte) []byte          { return b }
func (m *NoReg) DecodeBinary(b []byte) ([]byte, error) { return b, nil }

type Tagless struct{}

func (m *Tagless) AppendBinary(b []byte) []byte          { return b } // want `type Tagless has a binary encode/decode pair but no WireTag method: a tagless wire message cannot be dispatched`
func (m *Tagless) DecodeBinary(b []byte) ([]byte, error) { return b, nil }

func init() {
	dist.RegisterBinary(func() dist.BinaryMessage { return new(Good) })
	dist.RegisterBinary(func() dist.BinaryMessage { return new(DupA) })
	dist.RegisterBinary(func() dist.BinaryMessage { return new(DupB) })
	dist.RegisterBinary(func() dist.BinaryMessage { return new(Lonely) })
	dist.RegisterBinary(func() dist.BinaryMessage { return new(Tagless) })
}
