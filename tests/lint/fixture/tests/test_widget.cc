#include "widget/widget.h"

int
main()
{
    const int perimeter = fixture::widgetPerimeter(3, 4);
    const int area = fixture::widgetAreaByAddition(3, 4);
    return perimeter == 14 && area == fixture::widgetArea(3, 4) ? 0 : 1;
}
