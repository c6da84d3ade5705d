package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"recdb/internal/types"
)

// seedFrames are the frames the unit tests build, one of each kind.
func seedFrames(t testing.TB) [][]byte {
	row := types.Row{types.NewInt(42), types.NewFloat(4.5), types.NewText("hi"), types.NewBool(true), types.Null()}
	frames := []struct {
		t       Type
		payload []byte
	}{
		{TypeHello, AppendHello(nil, Hello{SessionID: 9, Server: "recdb-server/1"})},
		{TypeQuery, AppendRequest(nil, Request{ID: 7, TimeoutMillis: 250, SQL: "SELECT 1"})},
		{TypeExec, AppendRequest(nil, Request{ID: 2, TimeoutMillis: 1000, SQL: "INSERT INTO t VALUES (1)"})},
		{TypePing, AppendID(nil, 3)},
		{TypeCancel, AppendID(nil, 1)},
		{TypeRowDesc, AppendRowDesc(nil, RowDesc{ID: 1, Strategy: "IndexRecommend", Columns: []string{"iid", "ratingval"}})},
		{TypeDataRow, AppendDataRow(nil, 1, row)},
		{TypeRowBatch, AppendRowBatch(nil, 1, []types.Row{row, row, row})},
		{TypeComplete, AppendComplete(nil, Complete{ID: 1, Rows: 5})},
		{TypePong, AppendID(nil, 3)},
		{TypeError, AppendError(nil, ErrorMsg{ID: 2, Code: CodeTimeout, Message: "query timed out"})},
	}
	out := make([][]byte, 0, len(frames))
	for _, f := range frames {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f.t, f.payload); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// checkTyped fails unless err is a *FrameError.
func checkTyped(t *testing.T, what string, err error) {
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("%s: untyped error %T: %v", what, err, err)
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader and to the
// payload decoders a server session applies to request frames. Each
// either fails with a typed error or yields a value that re-encodes to
// exactly the bytes it was read from. The input is read twice: as a raw
// stream, and as the type byte and payload of a well-formed frame, so
// the payload decoders see arbitrary bytes past the checksum too.
func FuzzReadFrame(f *testing.F) {
	for _, frame := range seedFrames(f) {
		f.Add(frame)
		f.Add(frame[frameHeaderSize:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		typ, payload, _, err := ReadFrame(r, nil)
		switch {
		case err == nil:
			var again bytes.Buffer
			if err := WriteFrame(&again, typ, payload); err != nil {
				t.Fatalf("re-encoding a frame read back: %v", err)
			}
			consumed := data[:len(data)-r.Len()]
			if !bytes.Equal(again.Bytes(), consumed) {
				t.Fatalf("frame re-encodes differently:\n read %x\nwrote %x", consumed, again.Bytes())
			}
			roundTripPayload(t, typ, payload)
		case err != io.EOF:
			checkTyped(t, "ReadFrame", err)
		}

		if len(data) == 0 {
			return
		}
		var framed bytes.Buffer
		if err := WriteFrame(&framed, Type(data[0]), data[1:]); err != nil {
			checkTyped(t, "WriteFrame", err)
			return
		}
		typ, payload, _, err = ReadFrame(&framed, nil)
		if err != nil || typ != Type(data[0]) || !bytes.Equal(payload, data[1:]) {
			t.Fatalf("well-formed frame read back as type %q payload %x, err %v", byte(typ), payload, err)
		}
		roundTripPayload(t, typ, payload)
	})
}

// roundTripPayload decodes a request-frame payload the way a server
// session does.
func roundTripPayload(t *testing.T, typ Type, payload []byte) {
	switch typ {
	case TypePing, TypeCancel:
		id, err := DecodeID(payload)
		if err != nil {
			checkTyped(t, "DecodeID", err)
			return
		}
		if enc := AppendID(nil, id); !bytes.Equal(enc, payload) {
			t.Fatalf("id re-encodes differently: read %x wrote %x", payload, enc)
		}
	case TypeQuery, TypeExec:
		roundTripRequest(t, payload)
	}
}

// FuzzDecodeRequest feeds arbitrary Query/Exec payloads to the request
// decoder.
func FuzzDecodeRequest(f *testing.F) {
	for _, frame := range seedFrames(f) {
		f.Add(frame[frameHeaderSize+1:])
	}
	f.Fuzz(roundTripRequest)
}

func roundTripRequest(t *testing.T, payload []byte) {
	req, err := DecodeRequest(payload)
	if err != nil {
		checkTyped(t, "DecodeRequest", err)
		return
	}
	if enc := AppendRequest(nil, req); !bytes.Equal(enc, payload) {
		t.Fatalf("request re-encodes differently: read %x wrote %x", payload, enc)
	}
}
