// Package tlslite is a compact SSL/TLS-style secure channel: an
// ECDHE-signed handshake followed by an encrypted, MAC-protected record
// layer. It is the paper's "SSL" baseline (OpenVPN/OpenSSL in the
// original testbed), deliberately built on the same primitives as the HIP
// stack — ECDH P-256, RSA/ECDSA signatures, AES-128-CTR and
// HMAC-SHA-256 — so throughput comparisons between HIP and SSL reflect
// protocol structure rather than cipher implementations, exactly the
// paper's argument that the two "essentially utilize the same
// cryptographic algorithms".
//
// The package is transport-agnostic: it runs over anything implementing
// Stream — a real net.Conn or a simulated connection bound to a process.
// Virtual CPU costs are reported through Config.Charge so simulation
// drivers can bill the VM.
package tlslite

import (
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"hipcloud/internal/identity"
	"hipcloud/internal/keymat"
)

// Stream is the byte transport the channel runs over.
type Stream interface {
	Read(b []byte) (int, error)
	Write(b []byte) (int, error)
}

// Errors returned by the package.
var (
	ErrHandshake   = errors.New("tlslite: handshake failed")
	ErrBadRecord   = errors.New("tlslite: malformed record")
	ErrBadMAC      = errors.New("tlslite: record authentication failed")
	ErrClosed      = errors.New("tlslite: connection closed")
	ErrCertRefused = errors.New("tlslite: peer certificate refused")
	ErrNoSuite     = errors.New("tlslite: no common cipher suite")
)

// legacySuite names the original record protection (AES-128-CTR +
// HMAC-SHA-256) inside suite lists; peers that predate negotiation are
// treated as offering exactly this.
const legacySuite = keymat.SuiteAESCTRSHA256

// PreferredSuites is the modern record-suite preference list: the
// single-pass AEAD suites first, the legacy channel last for interop
// with 2012-era peers. It is keymat.PreferredAEAD restricted to suites
// with a record-layer mapping (Config.checkSuites rejects the ESP-only
// CBC/NULL transforms).
var PreferredSuites = []keymat.Suite{
	keymat.SuiteAESGCM128, keymat.SuiteChaCha20Poly1305, keymat.SuiteAESGCM256,
	legacySuite,
}

// Record types.
const (
	recHandshake byte = 22
	recAppData   byte = 23
	recAlert     byte = 21
)

// maxRecord is the maximum plaintext per record.
const maxRecord = 16 * 1024

// Costs maps the channel's crypto operations to virtual CPU time; the
// zero value makes all operations free (real deployments).
type Costs struct {
	Sign               time.Duration
	Verify             time.Duration
	DHKeygen           time.Duration
	DHCompute          time.Duration
	SymmetricNsPerByte float64
}

// Config configures one side of the channel.
type Config struct {
	// Identity signs the handshake (required for servers; optional for
	// clients, which are anonymous as in typical HTTPS).
	Identity *identity.HostIdentity
	// VerifyPeer, when non-nil, decides whether to trust the peer's
	// public identity (certificate pinning / CA stand-in).
	VerifyPeer func(*identity.PublicID) error
	// Costs is the virtual cost model.
	Costs Costs
	// Charge receives virtual CPU costs as they are incurred (nil
	// discards them).
	Charge func(time.Duration)
	// Rand is the randomness source (nil = crypto/rand).
	Rand io.Reader
	// ServerName keys the client-side session cache.
	ServerName string
	// Cache enables client-side session resumption when non-nil.
	Cache *SessionCache
	// Sessions enables server-side resumption when non-nil.
	Sessions *ServerSessions
	// Suites lists acceptable record protections in preference order:
	// the AEAD suites (keymat.SuiteAESGCM128, SuiteAESGCM256,
	// SuiteChaCha20Poly1305) and keymat.SuiteAESCTRSHA256, which names
	// the legacy AES-128-CTR + HMAC-SHA-256 record layer. Nil keeps the
	// original wire format byte-for-byte: no suite fields appear in
	// either hello and records use the legacy protection, so existing
	// deployments and the simulation goldens are unaffected. A non-nil
	// list turns on negotiation — the ClientHello carries the client's
	// list, the ServerHello echoes the server's choice, and both are
	// covered by the Finished transcript MACs, so stripping or rewriting
	// the offer aborts the handshake rather than downgrading it.
	Suites []keymat.Suite
}

func (c *Config) rand() io.Reader {
	if c.Rand != nil {
		return c.Rand
	}
	return rand.Reader
}

// ecdheKey generates the ephemeral key. With the default (crypto/rand)
// source it uses the stdlib generator; with an explicit deterministic
// Rand it rejection-samples the scalar itself, because since Go 1.20
// ecdh.GenerateKey deliberately consumes a runtime-random number of
// bytes from non-default readers (randutil.MaybeReadByte), which would
// advance a simulation's seeded RNG by a nondeterministic offset and
// change every later draw.
func (c *Config) ecdheKey() (*ecdh.PrivateKey, error) {
	if c.Rand == nil {
		return ecdh.P256().GenerateKey(rand.Reader)
	}
	var b [32]byte
	for {
		if _, err := io.ReadFull(c.Rand, b[:]); err != nil {
			return nil, err
		}
		k, err := ecdh.P256().NewPrivateKey(b[:])
		if err == nil {
			return k, nil
		}
		// Out-of-range scalar (probability ~2^-32): redraw.
	}
}

func (c *Config) charge(d time.Duration) {
	if c.Charge != nil && d > 0 {
		c.Charge(d)
	}
}

// checkSuites validates Config.Suites up front: only suites with a
// record-layer mapping are allowed (the AEAD suites and legacySuite).
func (c *Config) checkSuites() error {
	for _, s := range c.Suites {
		if s != legacySuite && !s.IsAEAD() {
			return fmt.Errorf("%w: suite %v has no record-layer mapping", ErrNoSuite, s)
		}
	}
	return nil
}

// allows reports whether the config accepts suite s for the record
// layer (nil Suites = legacy only).
func (c *Config) allows(s keymat.Suite) bool {
	if c.Suites == nil {
		return s == legacySuite
	}
	for _, have := range c.Suites {
		if have == s {
			return true
		}
	}
	return false
}

// suitesWire encodes a suite list as big-endian uint16 pairs.
func suitesWire(suites []keymat.Suite) []byte {
	out := make([]byte, 0, 2*len(suites))
	for _, s := range suites {
		out = append(out, byte(s>>8), byte(s))
	}
	return out
}

// parseSuitesWire decodes a suite-list field (trailing odd byte is a
// parse error; unknown ids are kept — Negotiate skips them).
func parseSuitesWire(b []byte) ([]keymat.Suite, error) {
	if len(b) == 0 || len(b)%2 != 0 {
		return nil, ErrBadRecord
	}
	out := make([]keymat.Suite, 0, len(b)/2)
	for i := 0; i < len(b); i += 2 {
		out = append(out, keymat.Suite(binary.BigEndian.Uint16(b[i:])))
	}
	return out, nil
}

// clientHello builds the ClientHello message: rand(32) field(ticket)
// and, only for suite-aware clients, a trailing field with the offered
// suite list. Legacy servers parse the first two and ignore trailing
// bytes, so the offer is backward compatible; a nil-Suites client emits
// the original bytes exactly.
func clientHello(cfg *Config, clientRand, ticket []byte) []byte {
	body := appendField(append([]byte{}, clientRand...), ticket)
	if cfg.Suites != nil {
		body = appendField(body, suitesWire(cfg.Suites))
	}
	return msg(msgClientHello, body)
}

// Conn is an established secure channel.
//
// Like net.Conn, one Read and one Write may run concurrently, but the
// record layer keeps per-direction scratch, so multiple simultaneous
// Reads (or Writes) are not safe.
type Conn struct {
	stream Stream
	rd     io.Reader // stream adapted to io.Reader, cached once
	cfg    Config

	outSeq, inSeq uint64
	suite         keymat.Suite
	// Record protection, one keymat.AEAD per direction (nil once closed).
	// The nonce arrays hold the per-direction 4-byte AEAD salt in their
	// head and the record sequence number in their tail; the seq arrays
	// are the 8 AAD bytes (from which the 2012 composite derives its IV).
	// They live on the heap-resident Conn so crossing the AEAD interface
	// never forces a per-record escape.
	out, in           keymat.AEAD
	outNonce, inNonce [keymat.NonceLen]byte
	outSeqB, inSeqB   [8]byte

	wbuf []byte // reusable wire buffer for outgoing records
	rrec []byte // reusable buffer holding the current incoming record
	rhdr [3]byte
	rbuf []byte // unread decrypted bytes; aliases rrec

	peer   *identity.PublicID
	closed bool
}

// Peer returns the peer's verified identity (nil for anonymous clients).
func (c *Conn) Peer() *identity.PublicID { return c.peer }

// Suite returns the negotiated record-protection suite.
func (c *Conn) Suite() keymat.Suite { return c.suite }

// --- handshake messages ---

// handshake message framing: type(1) len(3) body.
const (
	msgClientHello  byte = 1
	msgServerHello  byte = 2
	msgServerResume byte = 3
	msgClientKey    byte = 16
	msgFinished     byte = 20
)

func writeRecord(s Stream, typ byte, payload []byte) error {
	hdr := []byte{typ, byte(len(payload) >> 8), byte(len(payload))}
	if _, err := s.Write(append(hdr, payload...)); err != nil {
		return err
	}
	return nil
}

func readRecord(s Stream, want byte) ([]byte, error) {
	hdr := make([]byte, 3)
	if _, err := io.ReadFull(readerOf(s), hdr); err != nil {
		return nil, err
	}
	n := int(hdr[1])<<8 | int(hdr[2])
	if n > maxRecord+64 {
		return nil, ErrBadRecord
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(readerOf(s), body); err != nil {
		return nil, err
	}
	if hdr[0] == recAlert {
		return nil, ErrClosed
	}
	if hdr[0] != want {
		return nil, ErrBadRecord
	}
	return body, nil
}

// readerOf adapts Stream to io.Reader (it already is one structurally).
func readerOf(s Stream) io.Reader { return readerFunc(s.Read) }

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(b []byte) (int, error) { return f(b) }

func msg(typ byte, body []byte) []byte {
	out := make([]byte, 4+len(body))
	out[0] = typ
	out[1], out[2], out[3] = byte(len(body)>>16), byte(len(body)>>8), byte(len(body))
	copy(out[4:], body)
	return out
}

func splitMsg(b []byte) (byte, []byte, error) {
	if len(b) < 4 {
		return 0, nil, ErrBadRecord
	}
	n := int(b[1])<<16 | int(b[2])<<8 | int(b[3])
	if len(b) < 4+n {
		return 0, nil, ErrBadRecord
	}
	return b[0], b[4 : 4+n], nil
}

// keySchedule derives directional keys from the ECDHE secret and both
// randoms (a PRF in the spirit of TLS 1.2's). The four PRF draws and
// their truncation depend only on the suite's registry entry, so the
// legacy suite yields exactly the pre-negotiation bytes (16-byte enc
// key, 32-byte MAC key per direction) while the AEAD suites draw their
// key through the enc slot and the 4-byte implicit-IV salt through the
// auth slot — the same convention as the ESP KEYMAT layout.
func keySchedule(secret, clientRand, serverRand []byte, suite keymat.Suite) (cliEnc, cliAuth, srvEnc, srvAuth []byte, err error) {
	encLen, err := suite.EncKeyLen()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	authLen, err := suite.AuthKeyLen()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	prf := func(label byte) []byte {
		h := hmac.New(sha256.New, secret)
		h.Write([]byte{label})
		h.Write(clientRand)
		h.Write(serverRand)
		return h.Sum(nil)
	}
	return prf(1)[:encLen], prf(2)[:authLen], prf(3)[:encLen], prf(4)[:authLen], nil
}

// transcriptMAC computes the Finished verifier.
func transcriptMAC(secret []byte, transcript ...[]byte) []byte {
	h := hmac.New(sha256.New, secret)
	for _, t := range transcript {
		h.Write(t)
	}
	return h.Sum(nil)
}

// Client performs the client side of the handshake over s. With a
// session cache configured it first attempts an abbreviated resumption
// handshake, falling back to the full exchange when the server declines.
func Client(s Stream, cfg Config) (*Conn, error) {
	if err := cfg.checkSuites(); err != nil {
		return nil, err
	}
	clientRand := make([]byte, 32)
	if _, err := io.ReadFull(cfg.rand(), clientRand); err != nil {
		return nil, err
	}
	if cfg.Cache != nil && cfg.ServerName != "" {
		// A cached session whose suite the current config no longer accepts
		// is skipped (not resumed onto a now-forbidden record layer); the
		// full handshake below renegotiates and overwrites the cache entry.
		if sess, ok := cfg.Cache.get(cfg.ServerName); ok {
			defer keymat.Zeroize(sess.secret)
			if cfg.allows(sess.suite) {
				conn, resumed, err := resumeClient(s, cfg, sess, clientRand)
				if resumed {
					return conn, err
				}
				if fb, isFb := err.(errFallback); isFb {
					// Server declined the ticket but already answered with a
					// full ServerHello: continue the full handshake.
					cfg.Cache.Forget(cfg.ServerName)
					hello := clientHello(&cfg, clientRand, sess.ticket)
					return clientFull(s, cfg, clientRand, hello, fb.rec, fb.body)
				}
				return nil, err
			}
		}
	}
	hello := clientHello(&cfg, clientRand, nil)
	if err := writeRecord(s, recHandshake, hello); err != nil {
		return nil, err
	}
	shRec, err := readRecord(s, recHandshake)
	if err != nil {
		return nil, fmt.Errorf("%w: reading server hello: %v", ErrHandshake, err)
	}
	typ, body, err := splitMsg(shRec)
	if err != nil || typ != msgServerHello {
		return nil, ErrHandshake
	}
	return clientFull(s, cfg, clientRand, hello, shRec, body)
}

// clientFull completes the full (non-resumed) handshake given the
// already-received ServerHello.
func clientFull(s Stream, cfg Config, clientRand, hello, shRec, body []byte) (*Conn, error) {
	// ServerHello: rand(32) alg(2) certLen(2) cert dhLen(2) dh sigLen(2) sig.
	if len(body) < 38 {
		return nil, ErrHandshake
	}
	serverRand := body[:32]
	alg := identity.Algorithm(binary.BigEndian.Uint16(body[32:]))
	rest := body[34:]
	cert, rest, err := takeField(rest)
	if err != nil {
		return nil, ErrHandshake
	}
	dhPub, rest, err := takeField(rest)
	if err != nil {
		return nil, ErrHandshake
	}
	sig, rest, err := takeField(rest)
	if err != nil {
		return nil, ErrHandshake
	}
	// Optional trailing field: the server's suite choice. Absent means a
	// legacy server (or one configured without Suites); present, it must
	// name a suite we actually offered — a choice outside our list (or any
	// choice when we never offered) is a negotiation violation, and the
	// transcript MACs below additionally pin the exact hello bytes, so a
	// stripped offer surfaces as a Finished mismatch, not a downgrade.
	suite := legacySuite
	if len(rest) > 0 {
		chosenB, _, err := takeField(rest)
		if err != nil || len(chosenB) != 2 || cfg.Suites == nil {
			return nil, ErrHandshake
		}
		suite = keymat.Suite(binary.BigEndian.Uint16(chosenB))
	}
	if !cfg.allows(suite) {
		return nil, ErrNoSuite
	}
	peer, err := identity.ParsePublicID(alg, cert)
	if err != nil {
		return nil, ErrHandshake
	}
	if cfg.VerifyPeer != nil {
		if err := cfg.VerifyPeer(peer); err != nil {
			return nil, ErrCertRefused
		}
	}
	cfg.charge(cfg.Costs.Verify)
	signed := append(append(append([]byte{}, clientRand...), serverRand...), dhPub...)
	if err := peer.Verify(signed, sig); err != nil {
		return nil, ErrHandshake
	}
	// Client ECDHE.
	priv, err := cfg.ecdheKey()
	if err != nil {
		return nil, err
	}
	cfg.charge(cfg.Costs.DHKeygen)
	secret, err := keymat.SharedSecret(priv, dhPub)
	if err != nil {
		return nil, ErrHandshake
	}
	defer keymat.Zeroize(secret) // the Conn and the session cache keep copies
	cfg.charge(cfg.Costs.DHCompute)
	cke := msg(msgClientKey, priv.PublicKey().Bytes())
	if err := writeRecord(s, recHandshake, cke); err != nil {
		return nil, err
	}
	// Finished exchange.
	verify := transcriptMAC(secret, hello, shRec, cke)
	if err := writeRecord(s, recHandshake, msg(msgFinished, verify)); err != nil {
		return nil, err
	}
	finRec, err := readRecord(s, recHandshake)
	if err != nil {
		return nil, fmt.Errorf("%w: reading finished: %v", ErrHandshake, err)
	}
	ft, fb, err := splitMsg(finRec)
	if err != nil || ft != msgFinished || len(fb) < 32 ||
		!hmac.Equal(fb[:32], transcriptMAC(secret, hello, shRec, cke, []byte("server"))) {
		return nil, ErrHandshake
	}
	// A session ticket may follow the verifier.
	if cfg.Cache != nil && cfg.ServerName != "" && len(fb) > 32 {
		if ticket, _, err := takeField(fb[32:]); err == nil && len(ticket) > 0 {
			cfg.Cache.put(cfg.ServerName, ticket, secret, suite)
		}
	}
	return establish(s, cfg, secret, clientRand, serverRand, suite, true, peer)
}

// Server performs the server side of the handshake over s.
func Server(s Stream, cfg Config) (*Conn, error) {
	if cfg.Identity == nil {
		return nil, errors.New("tlslite: server requires an identity")
	}
	if err := cfg.checkSuites(); err != nil {
		return nil, err
	}
	chRec, err := readRecord(s, recHandshake)
	if err != nil {
		return nil, fmt.Errorf("%w: reading client hello: %v", ErrHandshake, err)
	}
	typ, chBody, err := splitMsg(chRec)
	if err != nil || typ != msgClientHello || len(chBody) < 32 {
		return nil, ErrHandshake
	}
	clientRand := chBody[:32]
	var ticket []byte
	var offer []keymat.Suite // nil: the client predates suite negotiation
	if len(chBody) > 32 {
		if tk, rest, err := takeField(chBody[32:]); err == nil {
			ticket = tk
			if len(rest) > 0 {
				if ofB, _, err := takeField(rest); err == nil {
					if of, perr := parseSuitesWire(ofB); perr == nil {
						offer = of
					}
				}
			}
		}
	}
	// Negotiate the record suite. A nil-Suites server ignores any offer
	// (its wire stays byte-identical to the pre-negotiation format); a
	// suite-aware server treats an offerless client as offering exactly
	// the legacy suite, and its own preference order decides — a
	// legacy-first offer from a downgrading middlebox cannot outrank the
	// server's AEAD preference, and an AEAD-only server refuses legacy
	// peers outright instead of accepting a suite outside its policy.
	suite := legacySuite
	if cfg.Suites != nil {
		clientOffer := offer
		if clientOffer == nil {
			clientOffer = []keymat.Suite{legacySuite}
		}
		chosen, err := keymat.Negotiate(clientOffer, cfg.Suites)
		if err != nil {
			return nil, ErrNoSuite
		}
		suite = chosen
	}
	serverRand := make([]byte, 32)
	if _, err := io.ReadFull(cfg.rand(), serverRand); err != nil {
		return nil, err
	}
	// Abbreviated handshake when the ticket resolves to a session whose
	// record suite the current config still permits; otherwise fall
	// through to a full handshake that renegotiates.
	if len(ticket) > 0 && cfg.Sessions != nil {
		if sess, ok := cfg.Sessions.get(ticket); ok {
			defer keymat.Zeroize(sess.secret)
			if cfg.allows(sess.suite) {
				return serverResume(s, cfg, chRec, clientRand, serverRand, sess)
			}
		}
	}
	priv, err := cfg.ecdheKey()
	if err != nil {
		return nil, err
	}
	cfg.charge(cfg.Costs.DHKeygen)
	dhPub := priv.PublicKey().Bytes()
	signed := append(append(append([]byte{}, clientRand...), serverRand...), dhPub...)
	sig, err := cfg.Identity.Sign(signed)
	if err != nil {
		return nil, err
	}
	cfg.charge(cfg.Costs.Sign)
	pub := cfg.Identity.Public()
	body := append([]byte{}, serverRand...)
	var algB [2]byte
	binary.BigEndian.PutUint16(algB[:], uint16(pub.Alg))
	body = append(body, algB[:]...)
	body = appendField(body, pub.DER)
	body = appendField(body, dhPub)
	body = appendField(body, sig)
	// Echo the suite choice only toward clients that offered: legacy
	// clients get the original ServerHello bytes, and the trailing field
	// is covered by every transcript MAC either way.
	if cfg.Suites != nil && offer != nil {
		body = appendField(body, suitesWire([]keymat.Suite{suite}))
	}
	shRec := msg(msgServerHello, body)
	if err := writeRecord(s, recHandshake, shRec); err != nil {
		return nil, err
	}
	ckeRec, err := readRecord(s, recHandshake)
	if err != nil {
		return nil, fmt.Errorf("%w: reading client key: %v", ErrHandshake, err)
	}
	ct, cliPubB, err := splitMsg(ckeRec)
	if err != nil || ct != msgClientKey {
		return nil, ErrHandshake
	}
	secret, err := keymat.SharedSecret(priv, cliPubB)
	if err != nil {
		return nil, ErrHandshake
	}
	defer keymat.Zeroize(secret) // the Conn and the session store keep copies
	cfg.charge(cfg.Costs.DHCompute)
	finRec, err := readRecord(s, recHandshake)
	if err != nil {
		return nil, fmt.Errorf("%w: reading finished: %v", ErrHandshake, err)
	}
	ft, fb, err := splitMsg(finRec)
	if err != nil || ft != msgFinished || !hmac.Equal(fb, transcriptMAC(secret, chRec, shRec, ckeRec)) {
		return nil, ErrHandshake
	}
	srvFin := transcriptMAC(secret, chRec, shRec, ckeRec, []byte("server"))
	srvFin = appendField(srvFin, issueTicket(cfg, secret, suite))
	if err := writeRecord(s, recHandshake, msg(msgFinished, srvFin)); err != nil {
		return nil, err
	}
	return establish(s, cfg, secret, clientRand, serverRand, suite, false, nil)
}

// serverResume completes the abbreviated handshake. The record suite is
// the one stored with the session — both ends negotiated it during the
// original full handshake and carry it in their caches, so no suite
// bytes appear on the resumption wire.
func serverResume(s Stream, cfg Config, chRec, clientRand, serverRand []byte, sess serverSession) (*Conn, error) {
	srRec := msg(msgServerResume, serverRand)
	if err := writeRecord(s, recHandshake, srRec); err != nil {
		return nil, err
	}
	finRec, err := readRecord(s, recHandshake)
	if err != nil {
		return nil, fmt.Errorf("%w: reading resumed finished: %v", ErrHandshake, err)
	}
	ft, fb, err := splitMsg(finRec)
	if err != nil || ft != msgFinished || !hmac.Equal(fb, transcriptMAC(sess.secret, chRec, srRec)) {
		return nil, ErrHandshake
	}
	if err := writeRecord(s, recHandshake, msg(msgFinished, transcriptMAC(sess.secret, chRec, srRec, []byte("server")))); err != nil {
		return nil, err
	}
	return establish(s, cfg, sess.secret, clientRand, serverRand, sess.suite, false, nil)
}

func takeField(b []byte) (field, rest []byte, err error) {
	if len(b) < 2 {
		return nil, nil, ErrBadRecord
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+n {
		return nil, nil, ErrBadRecord
	}
	return b[2 : 2+n], b[2+n:], nil
}

func appendField(b, field []byte) []byte {
	var l [2]byte
	binary.BigEndian.PutUint16(l[:], uint16(len(field)))
	return append(append(b, l[:]...), field...)
}

// establish ends every handshake: it derives the directional keys, builds
// the Conn and wipes the key slices — whole PRF outputs, not only the
// truncation in use — now that the transforms hold their own keyed state.
func establish(s Stream, cfg Config, secret, clientRand, serverRand []byte, suite keymat.Suite, isClient bool, peer *identity.PublicID) (*Conn, error) {
	cliEnc, cliAuth, srvEnc, srvAuth, err := keySchedule(secret, clientRand, serverRand, suite)
	if err != nil {
		return nil, err
	}
	c, err := newConn(s, cfg, suite, cliEnc, cliAuth, srvEnc, srvAuth, isClient, peer)
	for _, k := range [][]byte{cliEnc, cliAuth, srvEnc, srvAuth} {
		keymat.Zeroize(k[:cap(k)])
	}
	return c, err
}

// newConn builds both directions' transforms through keymat.NewAEAD (no
// explicit IV on records); keys of the wrong length for the suite are
// refused with keymat.ErrKeyLen.
func newConn(s Stream, cfg Config, suite keymat.Suite, cliEnc, cliAuth, srvEnc, srvAuth []byte, isClient bool, peer *identity.PublicID) (*Conn, error) {
	outEnc, outAuth, inEnc, inAuth := cliEnc, cliAuth, srvEnc, srvAuth
	if !isClient {
		outEnc, outAuth, inEnc, inAuth = inEnc, inAuth, outEnc, outAuth
	}
	c := &Conn{stream: s, rd: readerOf(s), cfg: cfg, suite: suite, peer: peer}
	var err error
	if c.out, err = keymat.NewAEAD(suite, outEnc, outAuth, 0); err != nil {
		return nil, err
	}
	if c.in, err = keymat.NewAEAD(suite, inEnc, inAuth, 0); err != nil {
		return nil, err
	}
	if suite.IsAEAD() {
		copy(c.outNonce[:keymat.SaltLen], outAuth)
		copy(c.inNonce[:keymat.SaltLen], inAuth)
	}
	return c, nil
}

// macLen is the record tag length. The legacy truncated HMAC and the
// AEAD tags coincide at 16 bytes, so Overhead is suite-independent (the
// compile-time check pins the coincidence both ways).
const macLen = 16
const _ = uint(macLen-keymat.TagLen) + uint(keymat.TagLen-macLen)

// sealRecordAppend protects one application record, appending
// ciphertext||tag to dst and returning the extended slice. The sequence
// number is the AAD and, behind the salt, the AEAD nonce. With a dst
// whose capacity already fits the record, it allocates nothing.
func (c *Conn) sealRecordAppend(dst, plain []byte) []byte {
	c.outSeq++
	binary.BigEndian.PutUint64(c.outSeqB[:], c.outSeq)
	binary.BigEndian.PutUint64(c.outNonce[keymat.SaltLen:], c.outSeq)
	dst, rec := keymat.Extend(dst, len(plain)+macLen)
	c.out.Seal(rec[:0], &c.outNonce, plain, c.outSeqB[:])
	c.cfg.charge(c.cfg.Costs.symmetric(len(plain)))
	return dst
}

func (cst Costs) symmetric(n int) time.Duration {
	return time.Duration(cst.SymmetricNsPerByte * float64(n))
}

// openRecordInPlace verifies one record body and decrypts it in place,
// returning the plaintext as a prefix of body. The tag is verified before
// any decryption. It allocates nothing.
func (c *Conn) openRecordInPlace(body []byte) ([]byte, error) {
	if len(body) < macLen {
		return nil, ErrBadRecord
	}
	c.inSeq++
	binary.BigEndian.PutUint64(c.inSeqB[:], c.inSeq)
	binary.BigEndian.PutUint64(c.inNonce[keymat.SaltLen:], c.inSeq)
	pt, err := c.in.Open(body[:0], &c.inNonce, body, c.inSeqB[:])
	if err != nil {
		return nil, ErrBadMAC
	}
	c.cfg.charge(c.cfg.Costs.symmetric(len(pt)))
	return pt, nil
}

// Write encrypts and sends b, fragmenting into records. The wire record
// (header, ciphertext, tag) is assembled in a reusable conn-owned buffer,
// so steady-state writes allocate nothing.
func (c *Conn) Write(b []byte) (int, error) {
	total := 0
	for len(b) > 0 && !c.closed {
		n := len(b)
		if n > maxRecord {
			n = maxRecord
		}
		c.wbuf = append(c.wbuf[:0], recAppData, 0, 0)
		c.wbuf = c.sealRecordAppend(c.wbuf, b[:n])
		rl := len(c.wbuf) - 3
		c.wbuf[1], c.wbuf[2] = byte(rl>>8), byte(rl)
		if _, err := c.stream.Write(c.wbuf); err != nil {
			return total, err
		}
		total += n
		b = b[n:]
	}
	if c.closed {
		return total, ErrClosed
	}
	return total, nil
}

// readRecordInto reads one record of the wanted type into the conn-owned
// record buffer and returns its body (valid until the next call).
func (c *Conn) readRecordInto(want byte) ([]byte, error) {
	if _, err := io.ReadFull(c.rd, c.rhdr[:]); err != nil {
		return nil, err
	}
	n := int(c.rhdr[1])<<8 | int(c.rhdr[2])
	if n > maxRecord+64 {
		return nil, ErrBadRecord
	}
	if cap(c.rrec) < n {
		c.rrec = make([]byte, n, n+n/4)
	}
	body := c.rrec[:n]
	if _, err := io.ReadFull(c.rd, body); err != nil {
		return nil, err
	}
	if c.rhdr[0] == recAlert {
		return nil, ErrClosed
	}
	if c.rhdr[0] != want {
		return nil, ErrBadRecord
	}
	return body, nil
}

// Read decrypts application data into b. Records are read into and
// decrypted within a reusable conn-owned buffer (safe because the next
// record is only fetched once the previous plaintext is fully drained),
// so steady-state reads allocate nothing.
func (c *Conn) Read(b []byte) (int, error) {
	for len(c.rbuf) == 0 {
		if c.closed {
			return 0, ErrClosed
		}
		body, err := c.readRecordInto(recAppData)
		if err != nil {
			return 0, err
		}
		if c.closed { // closed while the record was in flight: keys are gone
			return 0, ErrClosed
		}
		pt, err := c.openRecordInPlace(body)
		if err != nil {
			return 0, err
		}
		c.rbuf = pt
	}
	n := copy(b, c.rbuf)
	c.rbuf = c.rbuf[n:]
	return n, nil
}

// Close sends a close alert and wipes the record keys: both transforms
// are zeroized and dropped and the nonce salts cleared.
func (c *Conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.out.Zeroize()
	c.in.Zeroize()
	c.out, c.in = nil, nil
	c.outNonce, c.inNonce = [keymat.NonceLen]byte{}, [keymat.NonceLen]byte{}
	return writeRecord(c.stream, recAlert, []byte{0})
}

// Overhead reports the per-record wire overhead in bytes.
func Overhead() int { return 3 + macLen }
