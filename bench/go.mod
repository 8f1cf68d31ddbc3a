module tripoll/bench

go 1.24

require tripoll v0.0.0

replace tripoll => ../
