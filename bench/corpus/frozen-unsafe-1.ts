# expect: unsafe
system frozen-unsafe-1
var x : real [0, 100]
var y : real [0, 1]
init x >= 0 and x <= 1 and y >= 0.25 and y <= 0.3
trans x' = x + y and y' = y
prop x <= 6
