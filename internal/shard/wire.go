package shard

import (
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"

	"smoke/internal/serr"
	"smoke/internal/serverclient"
)

// decodeReply decodes a shard's reply through the shared wire decoder
// (serverclient.Decode): a 2xx body into out, anything else into the
// structured error the shard answered with, so the coordinator's reply
// carries the same kind, message, and SQL position — proxying must not
// flatten a 404 or a positioned 400 into an opaque 500.
func decodeReply(shardID int, res *callResult, out any) error {
	err := serverclient.Decode(res.status, res.body, out)
	var se *serverclient.Error
	switch {
	case err == nil:
		return nil
	case !errors.As(err, &se):
		return serr.New(serr.Internal, "shard: undecodable shard reply: %v", err)
	case !se.Structured:
		return serr.New(serr.Internal, "shard: shard %d answered %d with an unreadable error body", shardID, se.Status)
	case se.Pos >= 0:
		return serr.At(serr.ParseKind(se.Kind), se.Pos, "%s", se.Message)
	}
	return serr.New(serr.ParseKind(se.Kind), "%s", se.Message)
}

// decodeRequest decodes a client request body with the same int64-exact
// number handling the single-node server applies.
func decodeRequest(body []byte, v any) error {
	if err := serverclient.Decode(http.StatusOK, body, v); err != nil {
		return serr.New(serr.Invalid, "server: bad request body: %v", err)
	}
	return nil
}

// encodeKey builds the group-identity string of a key tuple. Float keys
// encode by exact bit pattern and strings are length-prefixed, so distinct
// tuples can never collide through formatting.
func encodeKey(keys []any) string {
	var b strings.Builder
	for _, k := range keys {
		switch v := k.(type) {
		case int64:
			b.WriteByte('i')
			b.WriteString(strconv.FormatInt(v, 10))
		case float64:
			b.WriteByte('f')
			b.WriteString(strconv.FormatUint(math.Float64bits(v), 16))
		case string:
			b.WriteByte('s')
			b.WriteString(strconv.Itoa(len(v)))
			b.WriteByte(':')
			b.WriteString(v)
		default:
			b.WriteByte('?')
		}
		b.WriteByte('|')
	}
	return b.String()
}
