package xmlutil

// OracleUnmarshal is encoding/xml's reading of a document, for the
// external tests that hold captured traffic to it.
var OracleUnmarshal = oracleUnmarshal
