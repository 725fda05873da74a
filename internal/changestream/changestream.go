// Package changestream defines the shared vocabulary of the
// change-data-capture subsystem: the event type delivered to
// subscribers, the opaque resume token that positions a subscription
// in every partition's change log, and the typed errors the stack
// surfaces.
//
// The token is the SCAN-cursor idiom applied to streams: an opaque
// printable string the client treats as a bookmark and the system can
// decode back into (tenant, per-partition replication positions).
// Because positions are engine sequence numbers that replicas share
// byte-for-byte (see lavastore.DB.Commit), a token minted against one
// primary resumes cleanly against whichever replica is primary later —
// the property that makes subscriptions survive failover. Tokens
// survive splits too: a split only appends partitions, so a shorter
// vector simply extends with zeros (new partitions replay from their
// start).
package changestream

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"abase/internal/lavastore"
)

// ErrBadToken is returned when a resume token cannot be decoded.
// Malformed tokens always error — never panic, never silently resume
// at a wrong offset.
var ErrBadToken = errors.New("changestream: malformed resume token")

// ErrHistoryTruncated reports that a token points below a partition's
// retained history: the WAL segments holding those offsets are gone
// (retention lapsed, or the replica restarted). It is the engine's
// sentinel re-exported so callers can errors.Is-match it without
// importing the storage layer.
var ErrHistoryTruncated = lavastore.ErrHistoryTruncated

// ErrSlowConsumer reports that a subscription's buffer overflowed: the
// consumer fell too far behind the commit rate and the subscription
// failed rather than block writers or buffer without bound. Events are
// durable in the change log — the consumer resumes from its last token
// with nothing lost.
var ErrSlowConsumer = errors.New("changestream: subscriber too slow, buffer overflow")

// Token is a subscription's decoded resume position: for each
// partition index, the last delivered sequence (0 = nothing delivered,
// deliver from the start of retained history).
type Token struct {
	Tenant    string
	Positions []uint64
}

// tokenPrefix versions the wire form; a future incompatible codec
// bumps it and old tokens fail with ErrBadToken instead of decoding
// wrong.
const tokenPrefix = "cs1."

// maxTokenPartitions bounds the decoded vector so a forged length
// cannot force a huge allocation.
const maxTokenPartitions = 1 << 16

// maxTokenTenant bounds the decoded tenant name.
const maxTokenTenant = 1 << 10

// Encode renders the token as an opaque printable string. The payload
// carries a checksum, so corruption is detected on decode rather than
// resuming at a wrong offset.
func (t Token) Encode() string {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(t.Tenant)))
	buf = append(buf, t.Tenant...)
	buf = binary.AppendUvarint(buf, uint64(len(t.Positions)))
	for _, p := range t.Positions {
		buf = binary.AppendUvarint(buf, p)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return tokenPrefix + base64.RawURLEncoding.EncodeToString(buf)
}

// uvarint is binary.Uvarint restricted to MINIMAL encodings, so that
// decoding is exactly the inverse of encoding: a padded varint under a
// recomputed checksum must not alias a canonical token.
func uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, -1
	}
	if len(binary.AppendUvarint(nil, v)) != n {
		return 0, -1
	}
	return v, n
}

// Decode parses an encoded token. Any deviation — wrong prefix, bad
// base64, short payload, checksum mismatch, trailing bytes, absurd
// lengths — returns ErrBadToken.
func Decode(s string) (Token, error) {
	if len(s) < len(tokenPrefix) || s[:len(tokenPrefix)] != tokenPrefix {
		return Token{}, fmt.Errorf("%w: missing %q prefix", ErrBadToken, tokenPrefix)
	}
	buf, err := base64.RawURLEncoding.DecodeString(s[len(tokenPrefix):])
	if err != nil {
		return Token{}, fmt.Errorf("%w: %v", ErrBadToken, err)
	}
	if len(buf) < 4 {
		return Token{}, fmt.Errorf("%w: short payload", ErrBadToken)
	}
	body, sum := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return Token{}, fmt.Errorf("%w: checksum mismatch", ErrBadToken)
	}
	tlen, n := uvarint(body)
	if n <= 0 || tlen > maxTokenTenant || uint64(len(body)-n) < tlen {
		return Token{}, fmt.Errorf("%w: tenant length", ErrBadToken)
	}
	body = body[n:]
	tenant := string(body[:tlen])
	body = body[tlen:]
	count, n := uvarint(body)
	if n <= 0 || count > maxTokenPartitions {
		return Token{}, fmt.Errorf("%w: partition count", ErrBadToken)
	}
	body = body[n:]
	positions := make([]uint64, count)
	for i := range positions {
		p, n := uvarint(body)
		if n <= 0 {
			return Token{}, fmt.Errorf("%w: position %d", ErrBadToken, i)
		}
		positions[i] = p
		body = body[n:]
	}
	if len(body) != 0 {
		return Token{}, fmt.Errorf("%w: trailing bytes", ErrBadToken)
	}
	return Token{Tenant: tenant, Positions: positions}, nil
}

// Extend grows the position vector to n partitions, new entries at 0
// (replay from the start of retained history). A tenant split only
// appends partitions, so extension is the whole story of token
// compatibility across splits.
func (t Token) Extend(n int) Token {
	if len(t.Positions) >= n {
		return t
	}
	out := Token{Tenant: t.Tenant, Positions: make([]uint64, n)}
	copy(out.Positions, t.Positions)
	return out
}
