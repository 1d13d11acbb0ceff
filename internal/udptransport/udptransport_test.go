package udptransport

import (
	"bytes"
	"errors"
	"testing"
)

func TestEncodeDecode(t *testing.T) {
	msg := Encode(MsgFrame, []byte("frame-bytes"))
	msgType, body, err := Decode(msg)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != MsgFrame || string(body) != "frame-bytes" {
		t.Errorf("got %c %q", msgType, body)
	}
	if _, _, err := Decode(nil); !errors.Is(err, ErrShortMessage) {
		t.Errorf("empty datagram: err = %v", err)
	}
}

func TestEncodeDecodeJSON(t *testing.T) {
	reg := Register{PlatformID: "platform-1", Key: bytes.Repeat([]byte{7}, 32)}
	msg, err := EncodeJSON(MsgRegister, reg)
	if err != nil {
		t.Fatal(err)
	}
	msgType, body, err := Decode(msg)
	if err != nil || msgType != MsgRegister {
		t.Fatalf("type %c err %v", msgType, err)
	}
	var back Register
	if err := DecodeJSON(body, &back); err != nil {
		t.Fatal(err)
	}
	if back.PlatformID != reg.PlatformID || !bytes.Equal(back.Key, reg.Key) {
		t.Errorf("round trip mismatch: %+v", back)
	}
}

func TestEncodeJSONTooLarge(t *testing.T) {
	huge := Register{PlatformID: string(bytes.Repeat([]byte{'x'}, MaxDatagram))}
	if _, err := EncodeJSON(MsgRegister, huge); err == nil {
		t.Error("oversized message accepted")
	}
}

func TestErrorf(t *testing.T) {
	msgType, body, err := Decode(Errorf("bad %d", 42))
	if err != nil || msgType != MsgError || string(body) != "bad 42" {
		t.Errorf("got %c %q %v", msgType, body, err)
	}
}
