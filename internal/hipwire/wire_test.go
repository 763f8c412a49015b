package hipwire

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

var (
	hitA = netip.MustParseAddr("2001:10::aaaa:1")
	hitB = netip.MustParseAddr("2001:10::bbbb:2")
)

func TestPacketRoundTrip(t *testing.T) {
	p := &Packet{
		Type:        I2,
		Controls:    0x0001,
		SenderHIT:   hitA,
		ReceiverHIT: hitB,
	}
	p.Add(ParamSolution, Solution{K: 10, I: 42, J: 77}.Marshal())
	p.Add(ParamHostID, HostID{Algorithm: 5, HI: []byte{1, 2, 3}, DI: []byte("vm1.cloud")}.Marshal())
	p.Add(ParamHMAC, bytes.Repeat([]byte{0xAB}, 32))
	b := p.Marshal()
	out, err := Parse(b)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if out.Type != I2 || out.Controls != 0x0001 {
		t.Fatalf("header mismatch: %+v", out)
	}
	if out.SenderHIT != hitA || out.ReceiverHIT != hitB {
		t.Fatalf("HITs mismatch: %v %v", out.SenderHIT, out.ReceiverHIT)
	}
	if len(out.Params) != 3 {
		t.Fatalf("param count = %d", len(out.Params))
	}
	// Marshal sorts ascending: SOLUTION(321), HOST_ID(705), HMAC(61505).
	if out.Params[0].Type != ParamSolution || out.Params[2].Type != ParamHMAC {
		t.Fatalf("order: %v %v %v", out.Params[0].Type, out.Params[1].Type, out.Params[2].Type)
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	p := &Packet{Type: I1, SenderHIT: hitA, ReceiverHIT: hitB}
	good := p.Marshal()

	if _, err := Parse(good[:HeaderLen-1]); err != ErrShort {
		t.Fatalf("short: %v", err)
	}
	bad := append([]byte(nil), good...)
	bad[3] = 0x21 // version 2
	if _, err := Parse(bad); err != ErrBadVersion {
		t.Fatalf("version: %v", err)
	}
	bad = append([]byte(nil), good...)
	bad[8] ^= 0xff // flips sender HIT, breaking checksum
	if _, err := Parse(bad); err != ErrBadChecksum {
		t.Fatalf("checksum: %v", err)
	}
	bad = append([]byte(nil), good...)
	bad[1] = 200 // claimed length way past buffer
	if _, err := Parse(bad); err != ErrShort {
		t.Fatalf("length overrun: %v", err)
	}
	bad[1] = 2 // claimed length shorter than the fixed header
	if _, err := Parse(bad); err != ErrShort {
		t.Fatalf("length under header: %v", err)
	}
}

func TestParseRejectsOutOfOrderParams(t *testing.T) {
	p := &Packet{Type: UPDATE, SenderHIT: hitA, ReceiverHIT: hitB}
	p.Add(ParamSeq, MarshalSeq(1))
	p.Add(ParamAck, MarshalAck([]uint32{2}))
	b := p.Marshal()
	// Manually swap the two params (SEQ=385 len 4 pads to 8; total 8 each).
	seg1 := append([]byte(nil), b[HeaderLen:HeaderLen+8]...)
	seg2 := append([]byte(nil), b[HeaderLen+8:HeaderLen+16]...)
	copy(b[HeaderLen:], seg2)
	copy(b[HeaderLen+8:], seg1)
	// Fix checksum for the reordered packet.
	b[4], b[5] = 0, 0
	cs := checksum(b)
	b[4], b[5] = byte(cs>>8), byte(cs)
	if _, err := Parse(b); err != ErrParamOrder {
		t.Fatalf("err = %v, want ErrParamOrder", err)
	}
}

func TestMarshalForAuthExcludesLaterParams(t *testing.T) {
	p := &Packet{Type: R2, SenderHIT: hitA, ReceiverHIT: hitB}
	p.Add(ParamESPInfo, ESPInfo{NewSPI: 7}.Marshal())
	p.Add(ParamHMAC, bytes.Repeat([]byte{1}, 32))
	p.Add(ParamSignature, Signature{Algorithm: 5, Sig: []byte{9}}.Marshal())

	forHMAC := p.MarshalForAuth(ParamHMAC)
	forSig := p.MarshalForAuth(ParamSignature)
	if bytes.Contains(forHMAC, bytes.Repeat([]byte{1}, 32)) {
		t.Fatal("HMAC input contains the HMAC parameter")
	}
	if !bytes.Contains(forSig, bytes.Repeat([]byte{1}, 32)) {
		t.Fatal("signature input should contain the HMAC parameter")
	}
	if len(forSig) <= len(forHMAC) {
		t.Fatal("signature input should be longer than HMAC input")
	}
}

func TestPuzzleSolutionRoundTrip(t *testing.T) {
	pz := Puzzle{K: 12, Lifetime: 37, Opaque: 0x1234, I: 0xdeadbeefcafe}
	got, err := ParsePuzzle(pz.Marshal())
	if err != nil || got != pz {
		t.Fatalf("puzzle: %+v, %v", got, err)
	}
	sol := Solution{K: 12, Lifetime: 37, Opaque: 0x1234, I: 0xdeadbeefcafe, J: 99}
	gs, err := ParseSolution(sol.Marshal())
	if err != nil || gs != sol {
		t.Fatalf("solution: %+v, %v", gs, err)
	}
	if _, err := ParsePuzzle(make([]byte, 4)); err == nil {
		t.Fatal("short puzzle accepted")
	}
	if _, err := ParseSolution(make([]byte, 12)); err == nil {
		t.Fatal("short solution accepted")
	}
}

func TestDiffieHellmanRoundTrip(t *testing.T) {
	d := DiffieHellman{Group: DHGroupP256, Public: bytes.Repeat([]byte{7}, 65)}
	got, err := ParseDiffieHellman(d.Marshal())
	if err != nil || got.Group != d.Group || !bytes.Equal(got.Public, d.Public) {
		t.Fatalf("dh: %+v, %v", got, err)
	}
	// Truncated public key must be rejected.
	enc := d.Marshal()
	if _, err := ParseDiffieHellman(enc[:10]); err == nil {
		t.Fatal("truncated DH accepted")
	}
}

func TestHostIDRoundTrip(t *testing.T) {
	h := HostID{Algorithm: 7, HI: bytes.Repeat([]byte{3}, 91), DI: []byte("web1.example.org")}
	got, err := ParseHostID(h.Marshal())
	if err != nil || got.Algorithm != 7 || !bytes.Equal(got.HI, h.HI) || !bytes.Equal(got.DI, h.DI) {
		t.Fatalf("hostid: %+v, %v", got, err)
	}
}

func TestESPInfoRoundTrip(t *testing.T) {
	e := ESPInfo{KeymatIndex: 5, OldSPI: 0x11223344, NewSPI: 0x55667788}
	got, err := ParseESPInfo(e.Marshal())
	if err != nil || got != e {
		t.Fatalf("espinfo: %+v, %v", got, err)
	}
}

func TestLocatorsRoundTripV4AndV6(t *testing.T) {
	in := []Locator{
		{Preferred: true, Lifetime: 120, Addr: netip.MustParseAddr("10.1.2.3")},
		{Preferred: false, Lifetime: 60, Addr: netip.MustParseAddr("2001:db8::5")},
	}
	got, err := ParseLocators(MarshalLocators(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("locators: %+v != %+v", got, in)
	}
	if _, err := ParseLocators(make([]byte, 23)); err == nil {
		t.Fatal("ragged locator body accepted")
	}
}

func TestSeqAckRoundTrip(t *testing.T) {
	id, err := ParseSeq(MarshalSeq(0xCAFEBABE))
	if err != nil || id != 0xCAFEBABE {
		t.Fatalf("seq: %v %v", id, err)
	}
	ids, err := ParseAck(MarshalAck([]uint32{1, 2, 3}))
	if err != nil || len(ids) != 3 || ids[2] != 3 {
		t.Fatalf("ack: %v %v", ids, err)
	}
}

func TestNotificationRoundTrip(t *testing.T) {
	n := Notification{Type: NotifyInvalidPuzzleSol, Data: []byte("bad J")}
	got, err := ParseNotification(n.Marshal())
	if err != nil || got.Type != n.Type || !bytes.Equal(got.Data, n.Data) {
		t.Fatalf("notification: %+v, %v", got, err)
	}
}

func TestAddrParamRoundTrip(t *testing.T) {
	for _, s := range []string{"192.0.2.7", "2001:db8::1"} {
		a := netip.MustParseAddr(s)
		got, err := ParseAddr(MarshalAddr(a))
		if err != nil || got != a {
			t.Fatalf("addr %s: %v, %v", s, got, err)
		}
	}
}

func TestEncryptedRoundTrip(t *testing.T) {
	e := Encrypted{IV: bytes.Repeat([]byte{9}, 16), Ciphertext: []byte("sealed host id")}
	got, err := ParseEncrypted(e.Marshal())
	if err != nil || !bytes.Equal(got.IV, e.IV) || !bytes.Equal(got.Ciphertext, e.Ciphertext) {
		t.Fatalf("encrypted: %+v, %v", got, err)
	}
}

func TestCipherListRoundTrip(t *testing.T) {
	c := CipherList{2, 1, 4}
	got, err := ParseCipherList(c.Marshal())
	if err != nil || !reflect.DeepEqual(got, c) {
		t.Fatalf("ciphers: %v, %v", got, err)
	}
	if _, err := ParseCipherList([]byte{0}); err == nil {
		t.Fatal("odd cipher list accepted")
	}
}

// Property: any packet we marshal parses back identically (params sorted).
func TestPacketMarshalParseProperty(t *testing.T) {
	f := func(ptype uint8, controls uint16, bodies [][]byte) bool {
		p := &Packet{
			Type:        PacketType(ptype & 0x7f),
			Controls:    controls,
			SenderHIT:   hitA,
			ReceiverHIT: hitB,
		}
		types := []uint16{ParamESPInfo, ParamPuzzle, ParamSeq, ParamHostID, ParamHMAC}
		for i, body := range bodies {
			if len(body) > 512 {
				body = body[:512]
			}
			p.Add(types[i%len(types)], body)
		}
		out, err := Parse(p.Marshal())
		if err != nil {
			return false
		}
		if out.Type != p.Type || out.Controls != controls {
			return false
		}
		return len(out.Params) == len(p.Params)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the parser never panics on arbitrary input.
func TestParseNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Parse(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Fuzz-style: bit-flip valid packets; parser must reject or return sane data.
func TestParseBitFlips(t *testing.T) {
	p := &Packet{Type: R1, SenderHIT: hitA, ReceiverHIT: hitB}
	p.Add(ParamPuzzle, Puzzle{K: 10, I: 7}.Marshal())
	p.Add(ParamHostID, HostID{Algorithm: 5, HI: bytes.Repeat([]byte{2}, 64)}.Marshal())
	good := p.Marshal()
	for i := 0; i < len(good); i++ {
		for _, mask := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), good...)
			mut[i] ^= mask
			out, err := Parse(mut)
			if err != nil {
				continue
			}
			// Parsed despite the flip (flip in padding): must still bound params.
			for _, pr := range out.Params {
				if len(pr.Data) > len(mut) {
					t.Fatalf("param data longer than packet after flip at %d", i)
				}
			}
		}
	}
}

func BenchmarkMarshal(b *testing.B) {
	p := &Packet{Type: I2, SenderHIT: hitA, ReceiverHIT: hitB}
	p.Add(ParamESPInfo, ESPInfo{NewSPI: 7}.Marshal())
	p.Add(ParamSolution, Solution{K: 10, I: 42, J: 77}.Marshal())
	p.Add(ParamHostID, HostID{Algorithm: 5, HI: bytes.Repeat([]byte{3}, 294), DI: []byte("vm1")}.Marshal())
	p.Add(ParamHMAC, bytes.Repeat([]byte{1}, 32))
	p.Add(ParamSignature, Signature{Algorithm: 5, Sig: bytes.Repeat([]byte{2}, 256)}.Marshal())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Marshal()
	}
}

func BenchmarkParse(b *testing.B) {
	p := &Packet{Type: I2, SenderHIT: hitA, ReceiverHIT: hitB}
	p.Add(ParamSolution, Solution{K: 10, I: 42, J: 77}.Marshal())
	p.Add(ParamHostID, HostID{Algorithm: 5, HI: bytes.Repeat([]byte{3}, 294)}.Marshal())
	p.Add(ParamHMAC, bytes.Repeat([]byte{1}, 32))
	wire := p.Marshal()
	b.ReportAllocs()
	b.SetBytes(int64(len(wire)))
	for i := 0; i < b.N; i++ {
		if _, err := Parse(wire); err != nil {
			b.Fatal(err)
		}
	}
}
