#include "widget/widget.h"

namespace fixture {

int
widgetArea(int w, int h)
{
    return w * h;
}

int
widgetPerimeter(int w, int h)
{
    return 2 * (w + h);
}

int
widgetAreaByAddition(int w, int h)
{
    int area = 0;
    for (int i = 0; i < h; i++)
        area += w;
    return area;
}

}  // namespace fixture
