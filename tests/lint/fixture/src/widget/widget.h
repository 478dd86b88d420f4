/**
 * @file
 * Check-9 fixture: one function a program calls, one only a test calls,
 * and one only a test calls that carries a keep marker.
 */

#ifndef FIXTURE_WIDGET_H_
#define FIXTURE_WIDGET_H_

namespace fixture {

/** Called by the program under bench/. */
int widgetArea(int w, int h);

/** Called only by the test: check 9 must report it. */
int widgetPerimeter(int w, int h);

/** Called only by the test, but kept as what it compares against. */
// lint: reference (the test compares widgetArea against it)
int widgetAreaByAddition(int w, int h);

}  // namespace fixture

#endif  // FIXTURE_WIDGET_H_
