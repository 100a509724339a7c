package wire

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"chc/internal/dist"
	"chc/internal/geom"
)

func roundTrip(t *testing.T, m dist.Message) dist.Message {
	t.Helper()
	b, err := AppendMessage(nil, m)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeMessage(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func TestRoundTripNil(t *testing.T) {
	m := dist.Message{From: 1, To: 2, Kind: "ping", Round: 3}
	got := roundTrip(t, m)
	if !reflect.DeepEqual(m, got) {
		t.Errorf("got %+v, want %+v", got, m)
	}
}

func TestRoundTripPoint(t *testing.T) {
	m := dist.Message{
		From: 0, To: 4, Kind: "input", Round: 0,
		Payload: PointPayload{Value: geom.NewPoint(1.5, -2.25, math.Pi)},
	}
	got := roundTrip(t, m)
	if !reflect.DeepEqual(m, got) {
		t.Errorf("got %+v, want %+v", got, m)
	}
}

func TestRoundTripEntries(t *testing.T) {
	m := dist.Message{
		From: 2, To: 0, Kind: "report", Round: 0,
		Payload: EntriesPayload{Entries: []Entry{
			{Proc: 0, Value: geom.NewPoint(0, 1)},
			{Proc: 3, Value: geom.NewPoint(-5, 2.5)},
		}},
	}
	got := roundTrip(t, m)
	if !reflect.DeepEqual(m, got) {
		t.Errorf("got %+v, want %+v", got, m)
	}
}

func TestRoundTripPolytope(t *testing.T) {
	m := dist.Message{
		From: 1, To: 3, Kind: "state", Round: 7,
		Payload: PolytopePayload{Verts: []geom.Point{
			geom.NewPoint(0, 0), geom.NewPoint(1, 0), geom.NewPoint(0.5, 2),
		}},
	}
	got := roundTrip(t, m)
	if !reflect.DeepEqual(m, got) {
		t.Errorf("got %+v, want %+v", got, m)
	}
}

func TestRoundTripInt(t *testing.T) {
	m := dist.Message{Kind: "ctl", Payload: IntPayload{Value: -42}}
	got := roundTrip(t, m)
	if !reflect.DeepEqual(m, got) {
		t.Errorf("got %+v, want %+v", got, m)
	}
}

func TestRoundTripEmptyCollections(t *testing.T) {
	m1 := dist.Message{Kind: "report", Payload: EntriesPayload{Entries: []Entry{}}}
	got1 := roundTrip(t, m1)
	if p, ok := got1.Payload.(EntriesPayload); !ok || len(p.Entries) != 0 {
		t.Errorf("empty entries round trip: %+v", got1.Payload)
	}
	m2 := dist.Message{Kind: "state", Payload: PolytopePayload{Verts: []geom.Point{}}}
	got2 := roundTrip(t, m2)
	if p, ok := got2.Payload.(PolytopePayload); !ok || len(p.Verts) != 0 {
		t.Errorf("empty polytope round trip: %+v", got2.Payload)
	}
}

func TestEncodeErrors(t *testing.T) {
	if _, err := AppendMessage(nil, dist.Message{Kind: strings.Repeat("x", 300)}); err == nil {
		t.Error("overlong kind should error")
	}
	if _, err := AppendMessage(nil, dist.Message{Kind: "k", Payload: struct{}{}}); err == nil {
		t.Error("unknown payload type should error")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	good, err := AppendMessage(nil, dist.Message{Kind: "k", Payload: PointPayload{Value: geom.NewPoint(1, 2)}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":        {},
		"truncated":    good[:len(good)-3],
		"bad length":   append(append([]byte{}, good...), 0xFF),
		"bad tag":      mutate(good, len(good)-17, 0x7F),
		"short header": good[:6],
	}
	for name, frame := range cases {
		if _, err := DecodeMessage(frame); err == nil {
			t.Errorf("%s: decode should fail", name)
		}
	}
}

func mutate(b []byte, idx int, v byte) []byte {
	c := append([]byte{}, b...)
	if idx >= 0 && idx < len(c) {
		c[idx] = v
	}
	return c
}

func TestStreamReadWrite(t *testing.T) {
	var buf bytes.Buffer
	msgs := []dist.Message{
		{From: 0, To: 1, Kind: "a", Payload: PointPayload{Value: geom.NewPoint(1)}},
		{From: 1, To: 0, Kind: "b", Round: 5, Payload: IntPayload{Value: 9}},
		{From: 2, To: 2, Kind: "c"},
	}
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for i, want := range msgs {
		got, err := ReadMessage(r)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("message %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := ReadMessage(r); err == nil {
		t.Error("reading past the end should fail")
	}
}

func TestReadTooLarge(t *testing.T) {
	var hdr [4]byte
	hdr[0] = 0xFF
	hdr[1] = 0xFF
	hdr[2] = 0xFF
	hdr[3] = 0xFF
	r := bufio.NewReader(bytes.NewReader(hdr[:]))
	if _, err := ReadMessage(r); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

// randPayload draws a payload of any type the codec knows, an RBC envelope
// (whose inner payload may itself be an RBC envelope, which the codec
// rejects), or one it does not know.
func randPayload(rng *rand.Rand) any {
	randPoint := func() geom.Point {
		p := make(geom.Point, rng.Intn(5))
		for i := range p {
			p[i] = rng.NormFloat64() * 1e3
		}
		return p
	}
	switch rng.Intn(9) {
	case 0:
		return nil
	case 1:
		return PointPayload{Value: randPoint()}
	case 2:
		es := make([]Entry, rng.Intn(6))
		for i := range es {
			es[i] = Entry{Proc: dist.ProcID(rng.Intn(100)), Value: randPoint()}
		}
		return EntriesPayload{Entries: es}
	case 3:
		vs := make([]geom.Point, rng.Intn(6))
		for i := range vs {
			vs[i] = randPoint()
		}
		return PolytopePayload{Verts: vs}
	case 4:
		return IntPayload{Value: rng.Int63() - rng.Int63()}
	case 5:
		ss := make([]dist.ProcID, rng.Intn(6))
		for i := range ss {
			ss[i] = dist.ProcID(rng.Intn(64))
		}
		return SendersPayload{Round: int32(rng.Intn(100)), Senders: ss}
	case 6, 7:
		return RBCPayload{Origin: dist.ProcID(rng.Intn(64)), Seq: int32(rng.Intn(100)), Inner: randPayload(rng)}
	default:
		return []any{struct{}{}, &PointPayload{}, 7}[rng.Intn(3)]
	}
}

// TestMessageSize: the size is len(AppendMessage(nil, m)) for every message
// the codec encodes and 0 for every one it refuses — unknown and nested-RBC
// payloads, a kind over 255 bytes, a body over MaxFrameLen — and costs no
// allocation: it is the default Sizer, so it runs on every send of every
// executor.
func TestMessageSize(t *testing.T) {
	check := func(m dist.Message) bool {
		want := 0
		if b, err := AppendMessage(nil, m); err == nil {
			want = len(b)
		}
		if got := MessageSize(m); got != want {
			t.Errorf("%T kind of %d bytes: MessageSize = %d, want %d", m.Payload, len(m.Kind), got, want)
			return false
		}
		if allocs := testing.AllocsPerRun(20, func() { MessageSize(m) }); allocs != 0 {
			t.Errorf("%T: MessageSize allocates %v objects/op, want 0", m.Payload, allocs)
			return false
		}
		return true
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		return check(dist.Message{
			From:     dist.ProcID(rng.Intn(64)),
			To:       dist.ProcID(rng.Intn(64)),
			Round:    rng.Intn(1000),
			Instance: rng.Intn(8),
			Kind:     strings.Repeat("k", []int{0, 1, 5, 8, 255, 256}[rng.Intn(6)]),
			Payload:  randPayload(rng),
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
	// A body of exactly MaxFrameLen bytes encodes; one byte more does not:
	// one point of dimension dim is a 24-byte body plus the kind and 8·dim.
	dim := (MaxFrameLen - 24) / 8
	big := PolytopePayload{Verts: []geom.Point{make(geom.Point, dim)}}
	for _, kind := range []string{"", "k"} {
		m := dist.Message{Kind: kind, Payload: big}
		check(m)
		if got, want := MessageSize(m) != 0, kind == ""; got != want {
			t.Errorf("body of MaxFrameLen+%d bytes: encodable = %v, want %v", len(kind), got, want)
		}
	}
}

// Property: random messages survive an encode/decode round trip bit-exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		randPoint := func() geom.Point {
			d := 1 + rng.Intn(4)
			p := make(geom.Point, d)
			for i := range p {
				p[i] = rng.NormFloat64() * 1e3
			}
			return p
		}
		var payload any
		switch rng.Intn(7) {
		case 0:
			payload = nil
		case 1:
			payload = PointPayload{Value: randPoint()}
		case 2:
			n := rng.Intn(6)
			es := make([]Entry, n)
			for i := range es {
				es[i] = Entry{Proc: dist.ProcID(rng.Intn(100)), Value: randPoint()}
			}
			payload = EntriesPayload{Entries: es}
		case 3:
			n := rng.Intn(6)
			vs := make([]geom.Point, n)
			for i := range vs {
				vs[i] = randPoint()
			}
			payload = PolytopePayload{Verts: vs}
		case 4:
			payload = IntPayload{Value: rng.Int63() - rng.Int63()}
		case 5:
			n := rng.Intn(6)
			ss := make([]dist.ProcID, n)
			for i := range ss {
				ss[i] = dist.ProcID(rng.Intn(64))
			}
			payload = SendersPayload{Round: int32(rng.Intn(100)), Senders: ss}
		case 6:
			payload = RBCPayload{
				Origin: dist.ProcID(rng.Intn(64)),
				Seq:    int32(rng.Intn(100)),
				Inner:  PointPayload{Value: randPoint()},
			}
		}
		m := dist.Message{
			From:    dist.ProcID(rng.Intn(64)),
			To:      dist.ProcID(rng.Intn(64)),
			Round:   rng.Intn(1000),
			Kind:    []string{"input", "report", "state", "ctl"}[rng.Intn(4)],
			Payload: payload,
		}
		b, err := AppendMessage(nil, m)
		if err != nil {
			return false
		}
		got, err := DecodeMessage(b)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRoundTripSenders(t *testing.T) {
	m := dist.Message{
		From: 1, To: 2, Kind: "choice", Round: 4,
		Payload: SendersPayload{Round: 3, Senders: []dist.ProcID{0, 2, 5}},
	}
	got := roundTrip(t, m)
	if !reflect.DeepEqual(m, got) {
		t.Errorf("got %+v, want %+v", got, m)
	}
}

func TestRoundTripRBC(t *testing.T) {
	inner := []any{
		PointPayload{Value: geom.NewPoint(1, 2)},
		SendersPayload{Round: 0, Senders: []dist.ProcID{1, 3}},
		IntPayload{Value: 9},
		nil,
	}
	for i, in := range inner {
		m := dist.Message{
			From: 3, To: 1, Kind: "rbc.echo", Round: 0,
			Payload: RBCPayload{Origin: 7, Seq: 2, Inner: in},
		}
		got := roundTrip(t, m)
		if !reflect.DeepEqual(m, got) {
			t.Errorf("case %d: got %+v, want %+v", i, got, m)
		}
	}
}

func TestNestedRBCRejected(t *testing.T) {
	m := dist.Message{Kind: "rbc.init", Payload: RBCPayload{
		Origin: 1, Seq: 0,
		Inner: RBCPayload{Origin: 2, Seq: 1, Inner: IntPayload{Value: 1}},
	}}
	if _, err := AppendMessage(nil, m); err == nil {
		t.Error("nested RBC payload should fail to encode")
	}
}

func TestPayloadKey(t *testing.T) {
	a := PointPayload{Value: geom.NewPoint(1, 2)}
	b := PointPayload{Value: geom.NewPoint(1, 2)}
	c := PointPayload{Value: geom.NewPoint(1, 3)}
	ka, err := PayloadKey(a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := PayloadKey(b)
	if err != nil {
		t.Fatal(err)
	}
	kc, err := PayloadKey(c)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Error("equal payloads must have equal keys")
	}
	if ka == kc {
		t.Error("different payloads must have different keys")
	}
	if _, err := PayloadKey(struct{ C chan int }{}); err == nil {
		t.Error("unencodable payload should error")
	}
}
