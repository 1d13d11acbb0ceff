// Package udptransport frames the EndBox control and data messages that
// the cmd/endbox-server and cmd/endbox-client binaries exchange over UDP:
// platform registration, remote attestation, the VPN handshake,
// configuration fetches and data-channel frames. Each datagram is one
// message: a single type byte followed by the body (JSON for control
// messages, raw wire frames for data). The full wire specification,
// including every message type and the reliability state machines, lives
// in docs/PROTOCOL.md.
//
// Two delivery classes share the socket:
//
//   - Control/configuration messages ride a selective-repeat ARQ layer
//     (arq.go), always: each message is one transfer, split into MsgRel
//     segments with per-transfer sequence numbers, acknowledged by MsgAck
//     (cumulative + selective), retransmitted on backed-off timers with a
//     retry budget, and delivered to the receiver once, whole. A
//     configuration blob too large for one datagram is simply a
//     multi-segment transfer, so a fetch survives loss instead of timing
//     out when one datagram disappears. A control message that arrives
//     without its envelope is ignored.
//   - Data-channel frames (MsgFrame) are fire-and-forget, exactly like
//     the packets they tunnel: no sequence numbers, no acks, no copies.
//
// Buffer ownership: datagrams are read into pooled buffers
// (wire.GetBuffer). A buffer is reused for the next read unless frame
// dispatch hands its ownership to the ingress worker pool
// (dataplane.Pool.SubmitOwned), which releases it after the handler
// returns. Control-message bodies are lent to handlers for the duration
// of the call — the ARQ layer and the JSON decoders copy what they keep.
// See DESIGN.md "Buffer ownership" for the deployment-wide rules.
package udptransport

import (
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"fmt"
)

// Message types.
const (
	// MsgRegister registers the client platform's quoting-enclave key
	// with the IAS (standing in for Intel's manufacturing provisioning).
	MsgRegister byte = 'R'
	// MsgRegisterOK acknowledges registration.
	MsgRegisterOK byte = 'r'
	// MsgQuote submits an attestation quote for enrolment.
	MsgQuote byte = 'Q'
	// MsgProvision answers with the certificate + sealed shared key.
	MsgProvision byte = 'P'
	// MsgHello opens the VPN handshake.
	MsgHello byte = 'H'
	// MsgServerHello answers the handshake.
	MsgServerHello byte = 'S'
	// MsgResume opens a fast session resume: a resumption ticket and a
	// signed transcript replace the certificate walk and key exchange of
	// a full handshake (docs/PROTOCOL.md §8).
	MsgResume byte = 'u'
	// MsgResumeOK answers a resume with the rotated ticket and the
	// server's signature.
	MsgResumeOK byte = 'U'
	// MsgFrame carries one sealed data-channel frame (either direction).
	MsgFrame byte = 'D'
	// MsgControl carries one sealed control-class frame (keepalive pings,
	// nacks, health reports). It is identical to MsgFrame on the wire
	// except for the delivery class: the server submits it to the ingress
	// pool with SubmitControl semantics, so it keeps flowing through the
	// watermark headroom while data frames are being shed under flood.
	// The type byte is outside the sealed frame and therefore
	// unauthenticated — an attacker marking flood datagrams as control
	// only gains the bounded headroom between the watermark and the hard
	// queue depth, and the frames still fail sealed-frame authentication.
	MsgControl byte = 'k'
	// MsgFetch requests a configuration blob by version (8-byte big
	// endian body).
	MsgFetch byte = 'F'
	// MsgConfig answers a fetch with the whole sealed update blob.
	MsgConfig byte = 'C'
	// MsgError carries a textual error.
	MsgError byte = '!'
	// MsgRel is the reliable-delivery envelope: one segment of a control
	// message, wrapped with a transfer ID and sequence numbers so the ARQ
	// layer can retransmit and reassemble it (body: 4-byte transfer,
	// 2-byte seq, 2-byte total, segment, 4-byte CRC-32C — see arq.go and
	// docs/PROTOCOL.md §5).
	MsgRel byte = '+'
	// MsgAck acknowledges reliable segments: a cumulative ack plus a
	// 32-bit selective-ack bitmap (body: 4-byte transfer, 2-byte cum,
	// 4-byte bitmap, 4-byte CRC-32C).
	MsgAck byte = 'A'
)

// MaxDatagram bounds datagram sizes (fits a 64 kB tunnelled packet plus
// framing overhead within the UDP maximum).
const MaxDatagram = 65507

// ErrShortMessage reports an empty datagram.
var ErrShortMessage = errors.New("udptransport: empty datagram")

// Register is the body of MsgRegister.
type Register struct {
	PlatformID string            `json:"platform_id"`
	Key        ed25519.PublicKey `json:"key"`
}

// Encode prepends the type byte to a body.
func Encode(msgType byte, body []byte) []byte {
	out := make([]byte, 1+len(body))
	out[0] = msgType
	copy(out[1:], body)
	return out
}

// EncodeJSON marshals body and frames it. The framed message must fit
// one reliable segment (SegmentPayload bytes): that is what makes every
// request a single-segment transfer, the only kind the server accepts.
func EncodeJSON(msgType byte, body any) ([]byte, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("udptransport: marshal %c: %w", msgType, err)
	}
	if len(raw)+1 > SegmentPayload {
		return nil, fmt.Errorf("udptransport: %c message of %d bytes exceeds one segment (%d)", msgType, len(raw)+1, SegmentPayload)
	}
	return Encode(msgType, raw), nil
}

// Decode splits a datagram into type and body. The body aliases the input.
func Decode(datagram []byte) (byte, []byte, error) {
	if len(datagram) == 0 {
		return 0, nil, ErrShortMessage
	}
	return datagram[0], datagram[1:], nil
}

// DecodeJSON unmarshals a message body.
func DecodeJSON(body []byte, into any) error {
	if err := json.Unmarshal(body, into); err != nil {
		return fmt.Errorf("udptransport: unmarshal: %w", err)
	}
	return nil
}

// Errorf builds a MsgError datagram.
func Errorf(format string, args ...any) []byte {
	return Encode(MsgError, []byte(fmt.Sprintf(format, args...)))
}
