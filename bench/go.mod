module abase/bench

go 1.24.0

require abase v0.0.0

replace abase => ../
