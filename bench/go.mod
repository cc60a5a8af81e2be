module qcdoc/bench

go 1.22

require qcdoc v0.0.0

replace qcdoc => ../
