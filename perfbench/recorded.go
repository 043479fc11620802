package main

// Outputs recorded with the benchmark. A run whose outputs differ from
// these counts the operation as failed. They were taken from the
// module at the commit that added the benchmark; a change that means
// to alter a program's behaviour re-records them and says so.

// defaultSeed is the seed the seed-dependent records were taken with.
const defaultSeed = 1

// recordedPaperReportSHA is the SHA-256 of the full report
// (report.All) of the five-program experiment at scale 1 under the
// paper's Table 2 profile.
const recordedPaperReportSHA = "9ee63cf4bfde0e75f3128f9f277da5d685dd5415f32583c7d289762529cda2b8"

// recordedServeResultMap is the SHA-256 over the first
// recordedQuestions distinct questions of the default seed's request
// list, one "question=result_sha" line each in first-answer order.
const recordedServeResultMap = "1d396675b57561d29b755bc82ff8a51a8f41921f2d3879708b0012111b616b18"

// debuggee is one program's recorded behaviour under the debugger:
// watches and the toggled rewrite must not change it.
type debuggee struct {
	exit      int32
	outputSHA string // SHA-256 of everything the program printed
}

var recordedDebuggees = map[string]debuggee{
	"gcc":   {exit: 0, outputSHA: "15b2e56e38951c32d30e2c90c0a6d2f8ac78dc8fd5d0e39e9bbcaa583bf8876d"},
	"ctex":  {exit: 0, outputSHA: "cc694c189930aea770014a6d8e7f689d4ffbfa620f658fc8907c28f3cffcb995"},
	"spice": {exit: 0, outputSHA: "5f390b52dad09e9ddb66d4ae6e4c1f906d6dd41bd9d8380d5937021b643cdd38"},
	"qcd":   {exit: 0, outputSHA: "9578ef10f3afe69bb46d62cd529cdb4f1e2cc77d9bce593a49f445d81063846c"},
	"bps":   {exit: 0, outputSHA: "37e4b85a25cfa3b86b1406ee7be0c79321003ced7365117a74c2d673f4e1c98b"},
}

// stepCounts is one session's recorded break and hit counts.
type stepCounts struct{ breaks, hits int }

// recordedRound0 holds the default seed's first-round sessions.
var recordedRound0 = map[string]stepCounts{
	"gcc":   {breaks: 1024, hits: 1024},
	"ctex":  {breaks: 1024, hits: 1024},
	"spice": {breaks: 770, hits: 770},
	"qcd":   {breaks: 1024, hits: 1024},
	"bps":   {breaks: 1024, hits: 1024},
}
