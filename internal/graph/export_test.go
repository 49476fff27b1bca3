package graph

// The reference codec and the graph comparison of text_ref_test.go, for
// the external tests over generated graphs (text_ledger_test.go).
var (
	RefParseText = refParseText
	RefWriteText = refWriteText
	SameGraph    = sameGraph
)
