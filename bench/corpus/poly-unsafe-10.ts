# expect: unsafe
system poly-unsafe-10
var x : real [0, 10]
init x >= 0.5 and x <= 0.6
trans x' = x + 0.2 * (1 * x - 0.0625 * x^3)
prop x <= 2.8
